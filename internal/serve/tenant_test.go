package serve

import (
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/certify"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/serveapi"
	"ftsched/internal/sim"
)

// TestTenantsInterleavedMatchLocal: two tenants on different applications
// share one server while their goroutines interleave eval, certify and
// dispatch requests. Every response equals the in-process result for that
// tenant's own tree, so no cache entry, compiled dispatcher or worker
// scratch leaks from one tenant's requests into the other's.
func TestTenantsInterleavedMatchLocal(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	type tenant struct {
		name   string
		app    *model.Application
		m      int
		key    string
		evals  []sim.MCConfig
		stats  []sim.MCStats
		report *certify.Report // nil: the tenant certifies nothing
		cycles []serveapi.CycleJSON
		want   []serveapi.CycleResultJSON
	}
	const rounds, goroutines, cycles = 8, 3, 48
	tenants := []*tenant{
		{name: "line-fig1", app: apps.Fig1(), m: 8},
		{name: "line-cc", app: apps.CruiseController(), m: 4},
	}
	for _, tn := range tenants {
		var syn serveapi.SynthesizeResponse
		if code := post(t, ts.URL+"/v1/synthesize", tn.name, serveapi.SynthesizeRequest{
			Format: serveapi.FormatV1, App: appJSON(t, tn.app), Options: core.FTQSOptions{M: tn.m},
		}, &syn); code != http.StatusOK {
			t.Fatalf("%s: synthesize: status %d", tn.name, code)
		}
		tn.key = syn.TreeKey

		tree := mustTree(t, tn.app, tn.m)
		for r := 0; r < rounds; r++ {
			cfg := sim.MCConfig{Scenarios: 400, Faults: r % (tn.app.K() + 1), Seed: int64(31 + r)}
			stats, err := sim.MonteCarlo(tree, cfg)
			if err != nil {
				t.Fatalf("%s: MonteCarlo: %v", tn.name, err)
			}
			tn.evals, tn.stats = append(tn.evals, cfg), append(tn.stats, stats)
		}
		if tn.app == tenants[0].app {
			report, err := certify.Certify(tree, certify.Config{MaxFaults: tn.app.K()})
			if err != nil {
				t.Fatalf("%s: Certify: %v", tn.name, err)
			}
			tn.report = &report
		}
		disp := mustDispatcher(t, tree)
		var rng sim.RNG
		var sc sim.Scenario
		for i := 0; i < cycles; i++ {
			rng.Reseed(sim.ScenarioSeed(11, i))
			if err := sim.SampleRNGInto(&sc, tn.app, &rng, i%(tn.app.K()+1), nil); err != nil {
				t.Fatalf("%s: sample %d: %v", tn.name, i, err)
			}
			cp := sim.Scenario{
				Durations: append([]model.Time(nil), sc.Durations...),
				FaultsAt:  append([]int(nil), sc.FaultsAt...),
				NFaults:   sc.NFaults,
			}
			res, err := disp.Run(cp)
			if err != nil {
				t.Fatalf("%s: run %d: %v", tn.name, i, err)
			}
			tn.cycles = append(tn.cycles, serveapi.CycleJSONOf(cp))
			tn.want = append(tn.want, serveapi.ResultJSON(&res))
		}
	}

	// check runs one request of the given kind for tn and compares the
	// response with the in-process result.
	check := func(tn *tenant, kind, r int) error {
		ref := serveapi.TreeRef{TreeKey: tn.key}
		switch kind {
		case 0:
			var resp serveapi.EvalResponse
			if code, err := do(ts.URL+"/v1/eval", tn.name, serveapi.EvalRequest{
				Format: serveapi.FormatV1, TreeRef: ref, Config: tn.evals[r],
			}, &resp); err != nil || code != http.StatusOK {
				return fmt.Errorf("eval: status %d, %v", code, err)
			}
			if resp.Stats != tn.stats[r] {
				return fmt.Errorf("eval round %d diverges:\nserved = %+v\nlocal  = %+v", r, resp.Stats, tn.stats[r])
			}
		case 1:
			if tn.report == nil {
				return nil
			}
			var resp serveapi.CertifyResponse
			if code, err := do(ts.URL+"/v1/certify", tn.name, serveapi.CertifyRequest{
				Format: serveapi.FormatV1, TreeRef: ref, Config: certify.Config{MaxFaults: tn.app.K()},
			}, &resp); err != nil || code != http.StatusOK {
				return fmt.Errorf("certify: status %d, %v", code, err)
			}
			if !resp.Certified || !reflect.DeepEqual(resp.Report, *tn.report) {
				return fmt.Errorf("certify diverges:\nserved = %+v\nlocal  = %+v", resp.Report, *tn.report)
			}
		case 2:
			var resp serveapi.DispatchResponse
			if code, err := do(ts.URL+"/v1/dispatch", tn.name, serveapi.DispatchRequest{
				Format: serveapi.FormatV1, TreeRef: ref, Cycles: tn.cycles,
			}, &resp); err != nil || code != http.StatusOK {
				return fmt.Errorf("dispatch: status %d, %v", code, err)
			}
			for i := range tn.want {
				if i >= len(resp.Results) || !reflect.DeepEqual(resp.Results[i], tn.want[i]) {
					return fmt.Errorf("dispatch cycle %d diverges from Dispatcher.Run", i)
				}
			}
			if len(resp.Results) != len(tn.want) {
				return fmt.Errorf("dispatch: %d results for %d cycles", len(resp.Results), len(tn.want))
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	for _, tn := range tenants {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Each goroutine starts at another request kind, so the
				// kinds interleave within and across tenants.
				for r := 0; r < rounds; r++ {
					for step := 0; step < 3; step++ {
						if err := check(tn, (g+r+step)%3, r); err != nil {
							t.Errorf("%s, goroutine %d: %v", tn.name, g, err)
							return
						}
					}
				}
			}()
		}
	}
	wg.Wait()
}
