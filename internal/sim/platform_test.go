package sim

import (
	"errors"
	"math"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/model"
)

// mappedTree synthesises an FTQS tree for app bound to the lp/hp two-core
// platform with the deterministic biased mapping.
func mappedTree(t *testing.T, app *model.Application, m int) *core.Tree {
	t.Helper()
	plat := model.MustNewPlatform(
		model.Core{Name: "lp", Speed: 1, PowerActive: 1, PowerIdle: 0.05},
		model.Core{Name: "hp", Speed: 2, PowerActive: 3, PowerIdle: 0.15},
	)
	mapped, err := app.WithPlatform(plat, model.BiasedMapping(app, plat))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.FTQS(mapped, core.FTQSOptions{M: m})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestOnlineRescheduleRejectsMappedPlatform: the single-clock comparator
// cannot simulate per-core timelines, so a mapped application is a typed
// error rather than a result timed at nominal speed.
func TestOnlineRescheduleRejectsMappedPlatform(t *testing.T) {
	tree := mappedTree(t, apps.CruiseController(), 1)
	app := tree.App
	sc := fixedScenario(app, nil, nil)
	var pe *ReschedulePlatformError
	if _, err := RunOnlineReschedule(app, tree.Root().Schedule, sc); !errors.As(err, &pe) {
		t.Fatalf("RunOnlineReschedule on a mapped platform = %v, want *ReschedulePlatformError", err)
	}
	if pe.Platform != app.Platform().String() {
		t.Errorf("error names platform %q, want %q", pe.Platform, app.Platform())
	}
}

// TestMonteCarloMappedWorkerInvariance: the acceptance contract for the
// platform refactor — the full MCStats struct, energy means included, is
// bit-identical for any MCConfig.Workers on mapped heterogeneous trees.
func TestMonteCarloMappedWorkerInvariance(t *testing.T) {
	fixtures := []struct {
		name string
		app  *model.Application
	}{
		{"fig1", apps.Fig1()},
		{"cc", apps.CruiseController()},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			tree := mappedTree(t, fx.app, 8)
			cfg := MCConfig{Scenarios: 1500, Faults: min(1, fx.app.K()), Seed: 21}
			cfg.Workers = 1
			base, err := MonteCarlo(tree, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The three means are folded independently, so the split only
			// holds to float rounding.
			if gap := base.MeanEnergy - (base.MeanEnergyActive + base.MeanEnergyIdle); base.MeanEnergyIdle <= 0 ||
				math.Abs(gap) > 1e-9*base.MeanEnergy {
				t.Fatalf("mapped energy split inconsistent: %+v", base)
			}
			for _, w := range []int{2, 8} {
				cfg.Workers = w
				got, err := MonteCarlo(tree, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got != base {
					t.Errorf("workers=%d: stats differ:\n  got  %+v\n  want %+v", w, got, base)
				}
			}
		})
	}
}
