package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"ftsched/internal/gen"
	"ftsched/internal/model"
	"ftsched/internal/schedule"
	"ftsched/internal/stats"
)

// HardRatioConfig parametrises the hard/soft-mix sensitivity sweep: an
// extension experiment beyond the paper (whose Table 1 fixes 50/50). It
// answers "where does quasi-static scheduling pay off?" — with no soft
// processes there is no utility to gain; with no hard processes there is
// no worst-case pressure forcing the pessimistic drops that revival
// recovers.
type HardRatioConfig struct {
	Budget
	Ratios    []float64
	Processes int
}

// HardRatioRow is one point of the sweep: FTSS and FTSF normalised to the
// FTQS no-fault utility (= 100), plus the fraction of soft processes the
// FTSS root drops (the revival headroom).
type HardRatioRow struct {
	Ratio        float64
	FTSS, FTSF   float64
	RootDropPct  float64
	Apps         int
	FTSFFailures int
}

// HardRatioResult aggregates the sweep.
type HardRatioResult struct {
	Rows []HardRatioRow
	Cfg  HardRatioConfig
}

// HardRatio runs the sweep.
func HardRatio(cfg HardRatioConfig) (*HardRatioResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &HardRatioResult{Cfg: cfg}
	for _, ratio := range cfg.Ratios {
		row := HardRatioRow{Ratio: ratio}
		var ftssAcc, ftsfAcc, dropAcc []float64
		for a := 0; a < cfg.Apps; a++ {
			gcfg := gen.Default(cfg.Processes)
			gcfg.HardRatio = ratio
			app, err := generateSchedulable(rng, gcfg, 50)
			if err != nil {
				return nil, err
			}
			ftqs, ftss, ftsf, err := cfg.synthesise(app)
			if err != nil {
				return nil, err
			}
			seed := rng.Int63()
			base, err := cfg.meanUtility(ftqs, 0, seed)
			if err != nil {
				return nil, err
			}
			if base == 0 {
				continue
			}
			us, err := cfg.meanUtility(ftss, 0, seed)
			if err != nil {
				return nil, err
			}
			ftssAcc = append(ftssAcc, stats.Ratio(us, base))
			if ftsf == nil {
				row.FTSFFailures++
				ftsfAcc = append(ftsfAcc, 0)
			} else {
				ub, err := cfg.meanUtility(ftsf, 0, seed)
				if err != nil {
					return nil, err
				}
				ftsfAcc = append(ftsfAcc, stats.Ratio(ub, base))
			}
			if pct, ok := droppedSoftPct(app, ftss.Root().Schedule); ok {
				dropAcc = append(dropAcc, pct)
			}
			row.Apps++
		}
		row.FTSS = stats.Mean(ftssAcc)
		row.FTSF = stats.Mean(ftsfAcc)
		row.RootDropPct = stats.Mean(dropAcc)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// droppedSoftPct returns the percentage of app's soft processes that s
// drops, and false when app has no soft process.
func droppedSoftPct(app *model.Application, s *schedule.FSchedule) (float64, bool) {
	soft := app.SoftIDs()
	if len(soft) == 0 {
		return 0, false
	}
	dropped := 0
	for _, id := range soft {
		if !s.Contains(id) {
			dropped++
		}
	}
	return 100 * float64(dropped) / float64(len(soft)), true
}

// Format renders the sweep.
func (r *HardRatioResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Hard/soft mix sweep — utility normalised to FTQS (%), no faults\n")
	sb.WriteString("hard%   FTSS   FTSF   root-dropped-soft%\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%4.0f%%  %5.1f  %5.1f   %5.1f%%\n",
			100*row.Ratio, row.FTSS, row.FTSF, row.RootDropPct)
	}
	return sb.String()
}
