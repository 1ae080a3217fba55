package experiments

import (
	"fmt"
	"strings"

	"ftsched/internal/apps"
	"ftsched/internal/chaos"
	"ftsched/internal/core"
	"ftsched/internal/runtime"
)

// ChaosRow is one policy's campaign outcome.
type ChaosRow struct {
	Policy runtime.DegradePolicy
	Clamp  bool
	Report *chaos.Report
}

// ChaosResult aggregates the per-policy campaigns.
type ChaosResult struct {
	Cfg  Budget
	Rows []ChaosRow
}

// Chaos runs the out-of-model containment evaluation: a seeded chaos
// campaign of cfg.Scenarios cycles (WCET overruns and >k fault bursts aimed
// at soft processes) on the paper's Fig. 8 application, with an FTQS tree
// of at most cfg.M schedules, run once per degrade policy and once more
// with watchdog clamping. The paper's guarantees stop at its fault model;
// this experiment measures what each policy still delivers beyond it. The
// containment contract itself — no panics, no detection gaps, no in-model
// misses, no misses the policy promised to absorb — is enforced here: a
// violation is an error, not a table row.
func Chaos(cfg Budget) (*ChaosResult, error) {
	app := apps.Fig8()
	tree, err := core.FTQS(app, cfg.ftqsOptions())
	if err != nil {
		return nil, err
	}
	res := &ChaosResult{Cfg: cfg}
	for _, row := range []struct {
		policy runtime.DegradePolicy
		clamp  bool
	}{
		{runtime.PolicyStrict, false},
		{runtime.PolicyShedSoft, false},
		{runtime.PolicyShedSoft, true},
		{runtime.PolicyBestEffort, false},
	} {
		rep, err := chaos.Run(tree, chaos.Config{
			Cycles:        cfg.Scenarios,
			Seed:          cfg.Seed,
			Workers:       cfg.Workers,
			Policy:        row.policy,
			Clamp:         row.clamp,
			BaseFaults:    1,
			OverrunProb:   0.25,
			OverrunFactor: 2.0,
			BurstProb:     0.25,
			ExtraFaults:   2,
			SoftOnly:      true,
			Sink:          cfg.Sink,
		})
		if err != nil {
			return nil, err
		}
		if n := rep.Panics + rep.Breaches + rep.DetectionGaps + rep.InModelMisses; n > 0 {
			return nil, fmt.Errorf("experiments: containment contract violated under %s (clamp=%v): %d panics, %d breaches, %d gaps, %d in-model misses",
				row.policy, row.clamp, rep.Panics, rep.Breaches, rep.DetectionGaps, rep.InModelMisses)
		}
		rep.Records = nil // the table needs totals only
		res.Rows = append(res.Rows, ChaosRow{Policy: row.policy, Clamp: row.clamp, Report: rep})
	}
	return res, nil
}

// Format renders the comparison.
func (r *ChaosResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Out-of-model containment under soft-aimed chaos (paper Fig. 8)\n")
	fmt.Fprintf(&sb, "%-12s %-6s %9s %9s %9s %8s %7s %11s\n",
		"policy", "clamp", "injected", "overruns", ">k burst", "degraded", "strict", "hard-misses")
	for _, row := range r.Rows {
		clamp := "no"
		if row.Clamp {
			clamp = "yes"
		}
		rep := row.Report
		fmt.Fprintf(&sb, "%-12s %-6s %9d %9d %9d %8d %7d %11d\n",
			row.Policy, clamp, rep.Injected, rep.Overruns, rep.ExtraFaults,
			rep.Degraded, rep.StrictErrors, rep.HardMisses)
	}
	sb.WriteString("(zero panics, detection gaps, in-model misses and absorbable misses: enforced)\n")
	return sb.String()
}
