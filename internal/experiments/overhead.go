package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"ftsched/internal/core"
	"ftsched/internal/gen"
	"ftsched/internal/runtime"
	"ftsched/internal/sim"
	"ftsched/internal/stats"
)

// OverheadConfig parametrises the quasi-static vs purely-online comparison
// (paper §1: "the online overhead of quasi-static scheduling is very low,
// compared to traditional online scheduling approaches"). This experiment
// is not a table in the paper, but it substantiates the claim the whole
// approach rests on.
type OverheadConfig struct {
	Budget
	Processes int
}

// OverheadResult aggregates the comparison.
type OverheadResult struct {
	Cfg OverheadConfig
	// Utilities normalised to the ideal online rescheduler (= 100).
	UtilFTSS, UtilFTQS, UtilIdeal float64
	// TreeCycleTime is the mean wall-clock time of dispatching one full
	// cycle through the tree's compiled dispatcher (compiled once per
	// application, outside the timed region).
	TreeCycleTime time.Duration
	// IdealSynthesisTime is the mean wall-clock time the online
	// rescheduler spends synthesising schedules per cycle.
	IdealSynthesisTime time.Duration
	// OverheadFactor is IdealSynthesisTime / TreeCycleTime.
	OverheadFactor float64
}

// Overhead runs the comparison: FTSS (no adaptation), FTQS (table-driven
// adaptation) and the ideal rescheduler (full re-synthesis per step), on
// no-fault scenarios.
func Overhead(cfg OverheadConfig) (*OverheadResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &OverheadResult{Cfg: cfg}
	var uS, uQ, uI []float64
	var treeTime, synthTime time.Duration
	var sc sim.Scenario
	var rs, rq runtime.Result
	cycles := 0
	for a := 0; a < cfg.Apps; a++ {
		app, err := generateSchedulable(rng, gen.Default(cfg.Processes), 50)
		if err != nil {
			return nil, err
		}
		root, err := core.FTSS(app)
		if err != nil {
			return nil, err
		}
		tree, err := core.FTQSFromRoot(app, root, cfg.ftqsOptions())
		if err != nil {
			return nil, err
		}
		// Both dispatchers are compiled once per application, so the timed
		// region is the per-cycle dispatch alone.
		static, err := runtime.NewDispatcher(sim.StaticTree(app, root))
		if err != nil {
			return nil, err
		}
		quasi, err := runtime.NewDispatcher(tree)
		if err != nil {
			return nil, err
		}
		var sumS, sumQ, sumI float64
		for i := 0; i < cfg.Scenarios; i++ {
			r := sim.NewRNG(sim.ScenarioSeed(cfg.Seed, a*cfg.Scenarios+i))
			if err := sim.SampleRNGInto(&sc, app, &r, 0, nil); err != nil {
				return nil, err
			}
			if err := static.RunInto(&rs, sc); err != nil {
				return nil, err
			}
			sumS += rs.Utility
			t0 := time.Now()
			err := quasi.RunInto(&rq, sc)
			treeTime += time.Since(t0)
			if err != nil {
				return nil, err
			}
			sumQ += rq.Utility
			ri, err := sim.RunOnlineReschedule(app, root, sc)
			if err != nil {
				return nil, err
			}
			synthTime += ri.SynthesisTime
			sumI += ri.Utility
			if len(rq.HardViolations)+len(ri.HardViolations) > 0 {
				return nil, fmt.Errorf("experiments: hard violation in overhead run")
			}
			cycles++
		}
		n := float64(cfg.Scenarios)
		base := sumI / n
		if base == 0 {
			continue
		}
		uS = append(uS, stats.Ratio(sumS/n, base))
		uQ = append(uQ, stats.Ratio(sumQ/n, base))
		uI = append(uI, 100)
	}
	res.UtilFTSS = stats.Mean(uS)
	res.UtilFTQS = stats.Mean(uQ)
	res.UtilIdeal = stats.Mean(uI)
	if cycles > 0 {
		res.TreeCycleTime = treeTime / time.Duration(cycles)
		res.IdealSynthesisTime = synthTime / time.Duration(cycles)
	}
	if res.TreeCycleTime > 0 {
		res.OverheadFactor = float64(res.IdealSynthesisTime) / float64(res.TreeCycleTime)
	}
	return res, nil
}

// Format renders the comparison.
func (r *OverheadResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Quasi-static vs purely online rescheduling (no-fault scenarios)\n")
	fmt.Fprintf(&sb, "utility (ideal = 100):  FTSS %.1f   FTQS(M=%d) %.1f   ideal %.1f\n",
		r.UtilFTSS, r.Cfg.M, r.UtilFTQS, r.UtilIdeal)
	fmt.Fprintf(&sb, "per-cycle cost: tree execution %v, online synthesis %v (%.0fx)\n",
		r.TreeCycleTime, r.IdealSynthesisTime, r.OverheadFactor)
	return sb.String()
}
