package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"ftsched/internal/core"
	"ftsched/internal/gen"
	"ftsched/internal/optimal"
	"ftsched/internal/schedule"
	"ftsched/internal/sim"
	"ftsched/internal/stats"
)

// OptGapConfig parametrises the optimality-gap experiment: FTSS and FTQS
// scored against the exact subset-DP optimum (internal/optimal) on small
// instances — quality evidence the paper could not report.
type OptGapConfig struct {
	Budget
	Processes int // <= optimal.MaxProcesses
	K         int
}

// OptGapResult aggregates the experiment.
type OptGapResult struct {
	Cfg OptGapConfig
	// StaticRatio is Σ FTSS utility / Σ optimal utility (expected
	// no-fault utility at average execution times) in percent.
	StaticRatio float64
	// SimulatedFTSS/FTQS/Optimal are mean simulated no-fault utilities
	// normalised to the simulated optimal schedule (= 100). FTQS may
	// exceed 100: the optimum is a single static schedule, while the
	// tree adapts online.
	SimulatedFTSS, SimulatedFTQS float64
	Apps                         int
}

// OptGap runs the experiment.
func OptGap(cfg OptGapConfig) (*OptGapResult, error) {
	if cfg.Processes > optimal.MaxProcesses {
		return nil, fmt.Errorf("experiments: %d processes exceed the exact-DP limit %d",
			cfg.Processes, optimal.MaxProcesses)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &OptGapResult{Cfg: cfg}
	var sumOpt, sumFTSS float64
	var simS, simQ []float64
	for i := 0; i < cfg.Apps; i++ {
		gcfg := gen.Default(cfg.Processes)
		gcfg.K = cfg.K
		app, err := generateSchedulable(rng, gcfg, 50)
		if err != nil {
			return nil, err
		}
		opt, err := optimal.Schedule(app)
		if err != nil {
			continue
		}
		ftss, err := core.FTSS(app)
		if err != nil {
			continue
		}
		tree, err := core.FTQSFromRoot(app, ftss, cfg.ftqsOptions())
		if err != nil {
			return nil, err
		}
		sumOpt += opt.Utility
		sumFTSS += schedule.ExpectedUtility(app, ftss)

		seed := rng.Int63()
		base, err := cfg.meanUtility(sim.StaticTree(app, opt.Schedule), 0, seed)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			continue
		}
		us, err := cfg.meanUtility(sim.StaticTree(app, ftss), 0, seed)
		if err != nil {
			return nil, err
		}
		uq, err := cfg.meanUtility(tree, 0, seed)
		if err != nil {
			return nil, err
		}
		simS = append(simS, stats.Ratio(us, base))
		simQ = append(simQ, stats.Ratio(uq, base))
		res.Apps++
	}
	if sumOpt > 0 {
		res.StaticRatio = 100 * sumFTSS / sumOpt
	}
	res.SimulatedFTSS = stats.Mean(simS)
	res.SimulatedFTQS = stats.Mean(simQ)
	return res, nil
}

// Format renders the result.
func (r *OptGapResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Optimality gap on %d-process instances (%d apps, exact subset DP)\n",
		r.Cfg.Processes, r.Apps)
	fmt.Fprintf(&sb, "static expected utility:  FTSS reaches %.1f%% of the optimal schedule\n", r.StaticRatio)
	fmt.Fprintf(&sb, "simulated no-fault mean (optimal static = 100): FTSS %.1f, FTQS(M=%d) %.1f\n",
		r.SimulatedFTSS, r.Cfg.M, r.SimulatedFTQS)
	return sb.String()
}
