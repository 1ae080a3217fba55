package experiments

import (
	"fmt"

	"ftsched/internal/obs"
)

// Budget is the effort every study shares. A study's default budget in
// Studies leaves at zero the knobs the study does not read, and With keeps
// them there.
type Budget struct {
	// Apps is the number of generated applications: per size for Fig. 9,
	// per point for the sweeps, on top of the fixtures for energy and
	// recovery.
	Apps int
	// Scenarios is the Monte-Carlo sample per evaluation (Chaos: the
	// campaign cycles per policy).
	Scenarios int
	// M bounds the FTQS tree.
	M    int
	Seed int64
	// Workers bounds the synthesis, evaluation, certification and campaign
	// goroutines (0 = GOMAXPROCS); results are identical for any value.
	Workers int
	// Sink receives the study's synthesis, simulation, certification and
	// dispatch events (nil disables instrumentation; results are identical
	// either way).
	Sink obs.Sink
}

// With returns b with the positive Apps, Scenarios and M and the non-zero
// Seed of o, and with o's Workers and Sink. A knob b leaves at zero stays
// zero: the study does not read it.
func (b Budget) With(o Budget) Budget {
	if o.Apps > 0 && b.Apps > 0 {
		b.Apps = o.Apps
	}
	if o.Scenarios > 0 && b.Scenarios > 0 {
		b.Scenarios = o.Scenarios
	}
	if o.M > 0 && b.M > 0 {
		b.M = o.M
	}
	if o.Seed != 0 {
		b.Seed = o.Seed
	}
	b.Workers, b.Sink = o.Workers, o.Sink
	return b
}

// Report is a study's result.
type Report interface{ Format() string }

// Study is one experiment of the evaluation harness.
type Study struct {
	// Name selects the study, as do its Aliases.
	Name    string
	Aliases []string
	// Budget is the CI-sized default; see EXPERIMENTS.md for the budgets
	// behind the recorded results.
	Budget Budget
	// Run runs the study under b; trim asks Table 1 for simulation-based
	// arc trimming and every other study ignores it. Besides the report it
	// returns the footer that summarises the budget.
	Run func(b Budget, trim bool) (Report, string, error)
}

// Studies lists every study in the order a full run takes them.
var Studies = []Study{
	{Name: "fig9", Aliases: []string{"fig9a", "fig9b"}, Budget: Budget{Apps: 5, Scenarios: 500, M: 32, Seed: 1},
		Run: func(b Budget, _ bool) (Report, string, error) {
			res, err := Fig9(Fig9Config{Budget: b, Sizes: []int{10, 15, 20, 25, 30, 35, 40, 45, 50}})
			return res, fmt.Sprintf("%d apps/size, %d scenarios, M=%d", b.Apps, b.Scenarios, b.M), err
		}},
	{Name: "table1", Budget: Budget{Apps: 5, Scenarios: 500, Seed: 2},
		Run: func(b Budget, trim bool) (Report, string, error) {
			res, err := Table1(Table1Config{Budget: b, Processes: 30, Ms: []int{1, 2, 8, 13, 23, 34, 79, 89}, Trim: trim})
			return res, fmt.Sprintf("%d apps × %d processes, %d scenarios", b.Apps, 30, b.Scenarios), err
		}},
	{Name: "cc", Aliases: []string{"cruise"}, Budget: Budget{Scenarios: 2000, M: 39, Seed: 3},
		Run: func(b Budget, _ bool) (Report, string, error) {
			res, err := CruiseController(b)
			return res, fmt.Sprintf("%d scenarios", b.Scenarios), err
		}},
	{Name: "overhead", Budget: Budget{Apps: 5, Scenarios: 200, M: 32, Seed: 4},
		Run: func(b Budget, _ bool) (Report, string, error) {
			res, err := Overhead(OverheadConfig{Budget: b, Processes: 30})
			return res, fmt.Sprintf("%d apps × %d processes, %d scenarios", b.Apps, 30, b.Scenarios), err
		}},
	{Name: "optgap", Budget: Budget{Apps: 30, Scenarios: 400, M: 24, Seed: 6},
		Run: func(b Budget, _ bool) (Report, string, error) {
			res, err := OptGap(OptGapConfig{Budget: b, Processes: 12, K: 2})
			return res, fmt.Sprintf("%d apps × %d processes, %d scenarios", b.Apps, 12, b.Scenarios), err
		}},
	{Name: "hardratio", Budget: Budget{Apps: 5, Scenarios: 500, M: 32, Seed: 8},
		Run: func(b Budget, _ bool) (Report, string, error) {
			res, err := HardRatio(HardRatioConfig{Budget: b, Processes: 30, Ratios: []float64{0.1, 0.25, 0.5, 0.75, 0.9}})
			return res, fmt.Sprintf("%d apps × %d processes per point, %d scenarios", b.Apps, 30, b.Scenarios), err
		}},
	{Name: "ftcost", Budget: Budget{Apps: 5, Scenarios: 500, M: 32, Seed: 9},
		Run: func(b Budget, _ bool) (Report, string, error) {
			res, err := FTCost(FTCostConfig{Budget: b, Processes: 30, Ks: []int{0, 1, 2, 3, 4}})
			return res, fmt.Sprintf("%d apps × %d processes, %d scenarios", b.Apps, 30, b.Scenarios), err
		}},
	{Name: "energy", Budget: Budget{Apps: 2, Scenarios: 500, M: 16, Seed: 11},
		Run: func(b Budget, _ bool) (Report, string, error) {
			res, err := Energy(WorkloadConfig{Budget: b, Processes: 10, Faults: 1})
			return res, fmt.Sprintf("%d generated apps × %d processes, %d scenarios", b.Apps, 10, b.Scenarios), err
		}},
	{Name: "recovery", Budget: Budget{Apps: 2, Scenarios: 500, M: 16, Seed: 13},
		Run: func(b Budget, _ bool) (Report, string, error) {
			res, err := Recovery(WorkloadConfig{Budget: b, Processes: 10, Faults: 1})
			return res, fmt.Sprintf("%d generated apps × %d processes, %d scenarios", b.Apps, 10, b.Scenarios), err
		}},
	{Name: "chaos", Budget: Budget{Scenarios: 2000, M: 16, Seed: 11},
		Run: func(b Budget, _ bool) (Report, string, error) {
			res, err := Chaos(b)
			return res, fmt.Sprintf("%d cycles per policy, seed %d", b.Scenarios, b.Seed), err
		}},
}
