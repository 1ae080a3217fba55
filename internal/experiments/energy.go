package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"ftsched/internal/apps"
	"ftsched/internal/certify"
	"ftsched/internal/core"
	"ftsched/internal/gen"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
	"ftsched/internal/sim"
)

// WorkloadConfig parametrises the energy and recovery studies, extension
// experiments beyond the paper: each evaluates the paper fixtures plus Apps
// generated applications of Processes processes, at Faults faults per
// scenario clamped to each application's k.
type WorkloadConfig struct {
	Budget
	Processes int
	Faults    int
}

type workload struct {
	name string
	app  *model.Application
}

// workloads returns the fixtures followed by cfg.Apps generated
// applications named gen-00, gen-01, ...
func (cfg WorkloadConfig) workloads(fixtures ...workload) ([]workload, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	for a := 0; a < cfg.Apps; a++ {
		app, err := generateSchedulable(rng, gen.Default(cfg.Processes), 50)
		if err != nil {
			return nil, err
		}
		fixtures = append(fixtures, workload{fmt.Sprintf("gen-%02d", a), app})
	}
	return fixtures, nil
}

// evaluation is one workload's FTQS tree, its Monte-Carlo statistics at
// the clamped fault count, and its certified fault bound.
type evaluation struct {
	tree   *core.Tree
	stats  sim.MCStats
	faults int
	certK  int
}

// evaluate synthesises app's FTQS tree, evaluates it at cfg.Faults clamped
// to app's k, failing on any hard violation, and finds its certified fault
// bound.
func (cfg WorkloadConfig) evaluate(app *model.Application, seed int64) (evaluation, error) {
	tree, err := core.FTQS(app, cfg.ftqsOptions())
	if err != nil {
		return evaluation{}, err
	}
	ev := evaluation{tree: tree, faults: min(cfg.Faults, app.K())}
	if ev.stats, err = cfg.monteCarlo(tree, ev.faults, seed); err != nil {
		return evaluation{}, err
	}
	ev.certK, err = certifiedK(tree, cfg.Workers, cfg.Sink)
	return ev, err
}

// HeteroPlatform is the reference two-core platform of the study: a
// low-power unit-speed core and a high-performance core twice as fast at
// three times the active power. The biased mapping places every primary on
// the LP core and every re-execution on the HP core, so the energy price
// of fault tolerance is paid only when faults actually occur.
func HeteroPlatform() *model.Platform {
	return model.MustNewPlatform(
		model.Core{Name: "lp", Speed: 1, PowerActive: 1, PowerIdle: 0.05},
		model.Core{Name: "hp", Speed: 2, PowerActive: 3, PowerIdle: 0.15},
	)
}

// EnergyRow is one (application, platform) evaluation.
type EnergyRow struct {
	App      string
	Platform string
	// Utility is the mean Monte-Carlo utility under the configured fault
	// injection; Faults echoes the clamped per-application count.
	Utility float64
	Faults  int
	// MeanEnergy is the mean per-cycle platform energy over the same
	// scenarios, split into its active and idle summands.
	MeanEnergy, MeanActive, MeanIdle float64
	// Cores and CoreEnergy give the per-core energy split of the nominal
	// (all-AET, fault-free) cycle through the compiled dispatcher.
	Cores      []string
	CoreEnergy []float64
	// CertifiedK is the largest fault count in [1, k] for which the
	// exhaustive certification engine proves every hard deadline, or 0 if
	// only the fault-free nominal is guaranteed.
	CertifiedK int
}

// EnergyResult aggregates the study.
type EnergyResult struct {
	Rows []EnergyRow
	Cfg  WorkloadConfig
}

// Energy runs the heterogeneous-platform study, answering "what do
// utility, energy and the certified fault bound look like when the same
// application runs on a low-power core with recoveries offloaded to a
// high-performance core?" (the paper assumes a single computation node).
// Each workload — the Fig. 1, Fig. 8 and cruise-controller fixtures, then
// the generated applications — is synthesised and evaluated twice through
// the same FTQS pipeline and mapped dispatcher: on the canonical
// single-core platform and on HeteroPlatform with the biased mapping.
func Energy(cfg WorkloadConfig) (*EnergyResult, error) {
	loads, err := cfg.workloads(
		workload{"paper-fig1", apps.Fig1()},
		workload{"paper-fig8", apps.Fig8()},
		workload{"cruise-ctrl", apps.CruiseController()},
	)
	if err != nil {
		return nil, err
	}
	hetero := HeteroPlatform()
	res := &EnergyResult{Cfg: cfg}
	for _, wl := range loads {
		seed := cfg.Seed + int64(len(res.Rows))
		single, err := energyRow(wl.name, "1-core", wl.app, cfg, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on 1-core: %w", wl.name, err)
		}
		res.Rows = append(res.Rows, single)
		mapped, err := wl.app.WithPlatform(hetero, model.BiasedMapping(wl.app, hetero))
		if err != nil {
			return nil, err
		}
		het, err := energyRow(wl.name, "lp+hp", mapped, cfg, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on lp+hp: %w", wl.name, err)
		}
		res.Rows = append(res.Rows, het)
	}
	return res, nil
}

func energyRow(name, platName string, app *model.Application, cfg WorkloadConfig, seed int64) (EnergyRow, error) {
	ev, err := cfg.evaluate(app, seed)
	if err != nil {
		return EnergyRow{}, err
	}
	nominal, err := nominalCoreEnergy(ev.tree)
	if err != nil {
		return EnergyRow{}, err
	}
	plat := app.Platform()
	cores := make([]string, plat.NCores())
	for c := range cores {
		cores[c] = plat.Core(model.CoreID(c)).Name
	}
	st := ev.stats
	return EnergyRow{
		App: name, Platform: platName,
		Utility: st.MeanUtility, Faults: ev.faults,
		MeanEnergy: st.MeanEnergy, MeanActive: st.MeanEnergyActive, MeanIdle: st.MeanEnergyIdle,
		Cores: cores, CoreEnergy: nominal,
		CertifiedK: ev.certK,
	}, nil
}

// nominalCoreEnergy runs the all-AET fault-free cycle through the compiled
// dispatcher and returns the per-core energy split.
func nominalCoreEnergy(tree *core.Tree) ([]float64, error) {
	d, err := runtime.NewDispatcher(tree)
	if err != nil {
		return nil, err
	}
	app := tree.App
	sc := runtime.Scenario{
		Durations: make([]model.Time, app.N()),
		FaultsAt:  make([]int, app.N()),
	}
	for i := range sc.Durations {
		sc.Durations[i] = app.Proc(model.ProcessID(i)).AET
	}
	res, err := d.Run(sc)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(res.CoreEnergy))
	copy(out, res.CoreEnergy)
	return out, nil
}

// certifiedK finds the largest fault count in [1, k] the exhaustive
// certification engine proves safe, descending from k; a counterexample
// demotes to the next bound, any other failure aborts. (The engine treats
// MaxFaults 0 as "use k", so the fault-free nominal — guaranteed by FTSS
// schedulability — is reported as 0 without a run.)
func certifiedK(tree *core.Tree, workers int, sink obs.Sink) (int, error) {
	for f := tree.App.K(); f >= 1; f-- {
		_, err := certify.Certify(tree, certify.Config{MaxFaults: f, Workers: workers, Sink: sink})
		if err == nil {
			return f, nil
		}
		var ce *certify.CounterexampleError
		if !errors.As(err, &ce) {
			return 0, err
		}
	}
	return 0, nil
}

// Format renders the study.
func (r *EnergyResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Energy on heterogeneous platforms — biased mapping\n")
	sb.WriteString("(primaries on the low-power core, re-executions on the high-performance core;\n")
	sb.WriteString(" energy = Σ busy·P_active + idle·P_idle per core; nominal = all-AET fault-free cycle)\n")
	sb.WriteString("app           platform   flt   utility     energy     active       idle   cert-k   nominal per-core\n")
	for _, row := range r.Rows {
		parts := make([]string, len(row.Cores))
		for c := range row.Cores {
			parts[c] = fmt.Sprintf("%s=%.1f", row.Cores[c], row.CoreEnergy[c])
		}
		fmt.Fprintf(&sb, "%-13s %-8s   %3d   %7.2f   %8.1f   %8.1f   %8.1f   %6d   %s\n",
			row.App, row.Platform, row.Faults, row.Utility,
			row.MeanEnergy, row.MeanActive, row.MeanIdle,
			row.CertifiedK, strings.Join(parts, " "))
	}
	return sb.String()
}
