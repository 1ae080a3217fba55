package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"ftsched/internal/core"
	"ftsched/internal/gen"
	"ftsched/internal/stats"
)

// FTCostConfig parametrises the price-of-fault-tolerance sweep: an
// extension experiment answering "how much no-fault utility does
// guaranteeing k faults cost?". For each fault bound k the same workloads
// are re-parametrised and re-synthesised; the no-fault utility of the
// k-tolerant tree is compared against the fault-oblivious quasi-static
// scheduler (k = 0 — effectively Cortés et al. [3], the paper's
// non-fault-tolerant predecessor).
type FTCostConfig struct {
	Budget
	Ks        []int
	Processes int
}

// FTCostRow is one point of the sweep.
type FTCostRow struct {
	K int
	// Utility is the mean no-fault utility of the k-tolerant FTQS tree,
	// normalised to the k = 0 tree (= 100): the price of the reserved
	// recovery slack and the pessimistic drops it forces.
	Utility float64
	// DroppedPct is the mean percentage of soft processes the k-tolerant
	// root drops.
	DroppedPct float64
	Apps       int
}

// FTCostResult aggregates the sweep.
type FTCostResult struct {
	Rows []FTCostRow
	Cfg  FTCostConfig
}

// FTCost runs the sweep. Workloads are generated once per app slot with
// the largest k (so the period accommodates every setting identically) and
// re-parametrised per k via model.Application.WithFaults.
func FTCost(cfg FTCostConfig) (*FTCostResult, error) {
	if len(cfg.Ks) == 0 {
		return nil, fmt.Errorf("experiments: FTCost needs at least one k")
	}
	maxK := cfg.Ks[0]
	for _, k := range cfg.Ks {
		if k < 0 {
			return nil, fmt.Errorf("experiments: negative k")
		}
		if k > maxK {
			maxK = k
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &FTCostResult{Cfg: cfg}
	acc := make(map[int][]float64)
	drops := make(map[int][]float64)
	apps := make(map[int]int)
	for a := 0; a < cfg.Apps; a++ {
		gcfg := gen.Default(cfg.Processes)
		gcfg.K = maxK
		base, err := generateSchedulable(rng, gcfg, 50)
		if err != nil {
			return nil, err
		}
		seed := rng.Int63()
		var zero float64
		ok := true
		utils := make(map[int]float64)
		dr := make(map[int]float64)
		for _, k := range cfg.Ks {
			app, err := base.WithFaults(k, base.Mu())
			if err != nil {
				return nil, err
			}
			tree, err := core.FTQS(app, cfg.ftqsOptions())
			if err != nil {
				ok = false
				break
			}
			u, err := cfg.meanUtility(tree, 0, seed)
			if err != nil {
				return nil, err
			}
			utils[k] = u
			if k == 0 {
				zero = u
			}
			dr[k], _ = droppedSoftPct(app, tree.Root().Schedule)
		}
		if !ok || zero == 0 {
			continue
		}
		for _, k := range cfg.Ks {
			acc[k] = append(acc[k], stats.Ratio(utils[k], zero))
			drops[k] = append(drops[k], dr[k])
			apps[k]++
		}
	}
	for _, k := range cfg.Ks {
		res.Rows = append(res.Rows, FTCostRow{
			K:          k,
			Utility:    stats.Mean(acc[k]),
			DroppedPct: stats.Mean(drops[k]),
			Apps:       apps[k],
		})
	}
	return res, nil
}

// Format renders the sweep.
func (r *FTCostResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Price of fault tolerance — no-fault utility vs fault bound k\n")
	sb.WriteString("(normalised to the fault-oblivious quasi-static scheduler, k=0)\n")
	sb.WriteString("  k   utility   root-dropped-soft%\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%3d   %6.1f   %6.1f%%\n", row.K, row.Utility, row.DroppedPct)
	}
	return sb.String()
}
