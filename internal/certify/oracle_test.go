package certify

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/gen"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
)

// scratch is the oracle runner: every scenario runs from the root
// through RunInto, which is how certification executed before it resumed
// recorded cycles.
type scratch struct {
	d   *runtime.Dispatcher
	res runtime.Result
}

func (s *scratch) Run(sc runtime.Scenario, _ bool) (*runtime.Result, error) {
	return &s.res, s.d.RunInto(&s.res, sc)
}

func fromScratch(d *runtime.Dispatcher) runner { return &scratch{d: d} }

// designTrees are the six trees of the repo benchmark's design workload:
// the cruise controller plus gen.Default(20, 20, 30, 30, 40) applications
// at seeds 2008+i, each synthesised at M=16. All six certify in frontier
// mode at designBudget.
var designTrees = sync.OnceValues(func() ([]*core.Tree, error) {
	list := []*model.Application{apps.CruiseController()}
	for i, n := range []int{20, 20, 30, 30, 40} {
		app, err := gen.Generate(rand.New(rand.NewSource(2008+int64(i))), gen.Default(n))
		if err != nil {
			return nil, err
		}
		list = append(list, app)
	}
	var trees []*core.Tree
	for _, app := range list {
		tree, err := core.FTQS(app, core.FTQSOptions{M: 16})
		if err != nil {
			return nil, err
		}
		trees = append(trees, tree)
	}
	return trees, nil
})

// designBudget is the repo benchmark's certify budget.
const designBudget = 1 << 20

// TestCertifyMatchesFromScratch holds certification, which resumes
// recorded cycles, against the from-scratch sweep: the Report and the
// counterexample must be identical field for field for every fixture,
// recovery model, platform, budget (default, forced frontier, the
// benchmark's) and worker count. Unsafe trees carry counterexamples in
// both modes. The six benchmark trees run at the benchmark's budget only
// (every budget here puts them in frontier mode, the same sweep) and are
// left to the non-race build.
func TestCertifyMatchesFromScratch(t *testing.T) {
	type tc struct {
		name    string
		tree    *core.Tree
		budgets []int64
	}
	all := []int64{0, 1, designBudget}
	var cases []tc
	for _, base := range []struct {
		app *model.Application
		m   int
	}{{apps.Fig1(), 12}, {apps.Fig8(), 16}} {
		for _, app := range recoveryStudy(t, base.app) {
			cases = append(cases, tc{fmt.Sprintf("%s/%s", app.Name(), app.Recovery()), synthesize(t, app, base.m), all})
		}
	}
	base := apps.Fig8()
	plat := model.MustNewPlatform(
		model.Core{Name: "lp", Speed: 1, PowerActive: 1, PowerIdle: 0.05},
		model.Core{Name: "hp", Speed: 2, PowerActive: 3, PowerIdle: 0.15},
	)
	mapped, err := base.WithPlatform(plat, model.BiasedMapping(base, plat))
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		tc{"fig8/mapped", synthesize(t, mapped, 16), all},
		tc{"cc", synthesize(t, apps.CruiseController(), 24), all},
		tc{"fig1/unsafe", unsafeTree(apps.Fig1()), all},
		tc{"fig8-mapped/unsafe", unsafeTree(mapped), all},
		tc{"cc/unsafe", unsafeTree(apps.CruiseController()), all},
	)
	if !raceEnabled && !testing.Short() {
		trees, err := designTrees()
		if err != nil {
			t.Fatal(err)
		}
		for i, tree := range trees {
			cases = append(cases, tc{fmt.Sprintf("design%d/%s", i, tree.App.Name()), tree, []int64{designBudget}})
		}
	}
	for _, c := range cases {
		for _, budget := range c.budgets {
			want, wantErr := certify(context.Background(), c.tree, Config{Workers: 2, Budget: budget}, fromScratch)
			if _, ok := wantErr.(*CounterexampleError); wantErr != nil && !ok {
				t.Fatalf("%s budget %d: oracle: %v", c.name, budget, wantErr)
			}
			for _, workers := range []int{1, 2, 8} {
				got, gotErr := Certify(c.tree, Config{Workers: workers, Budget: budget})
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
					t.Fatalf("%s budget %d workers %d:\ngot  %+v (err %v)\nwant %+v (err %v)",
						c.name, budget, workers, got, gotErr, want, wantErr)
				}
			}
		}
	}
}

// TestCertifySinkMatchesFromScratch: what a live sink sees of a
// certification equals what the from-scratch sweep emits — every counter
// and every histogram but the three per-entry ones, which count only the
// entries executed after each resume point and so never exceed the
// oracle's.
func TestCertifySinkMatchesFromScratch(t *testing.T) {
	for _, c := range []struct {
		name   string
		tree   *core.Tree
		budget int64
	}{
		{"fig8", synthesize(t, apps.Fig8(), 16), 0},
		{"cc/frontier", synthesize(t, apps.CruiseController(), 24), 1},
		{"fig1/unsafe", unsafeTree(apps.Fig1()), 0},
		{"cc/unsafe", unsafeTree(apps.CruiseController()), 1},
	} {
		want, got := obs.NewMetrics(), obs.NewMetrics()
		_, wantErr := certify(context.Background(), c.tree, Config{Budget: c.budget, Sink: want}, fromScratch)
		_, gotErr := Certify(c.tree, Config{Budget: c.budget, Sink: got})
		if !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("%s: err %v, oracle %v", c.name, gotErr, wantErr)
		}
		ws, gs := want.Snapshot(), got.Snapshot()
		if !reflect.DeepEqual(gs.Counters, ws.Counters) {
			t.Errorf("%s: counters\ngot  %v\nwant %v", c.name, gs.Counters, ws.Counters)
		}
		if ws.Counters[obs.DispatchCycles.Name()] == 0 {
			t.Errorf("%s: the oracle emitted no dispatch cycles", c.name)
		}
		perEntry := map[string]bool{
			obs.DispatchGuardDepth.Name(): true,
			obs.DispatchHardSlack.Name():  true,
			obs.DispatchSwitchNode.Name(): true,
		}
		for name, wh := range ws.Histograms {
			gh := gs.Histograms[name]
			if perEntry[name] {
				if gh.Count > wh.Count {
					t.Errorf("%s: %s counts %d entries, the oracle %d", c.name, name, gh.Count, wh.Count)
				}
				continue
			}
			if !reflect.DeepEqual(gh, wh) {
				t.Errorf("%s: histogram %s\ngot  %+v\nwant %+v", c.name, name, gh, wh)
			}
		}
	}
}
