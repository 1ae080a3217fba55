package serve

import (
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/certify"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/serveapi"
	"ftsched/internal/sim"
)

// TestWireDeterminism is the wire-vs-library contract: for every fixture
// application, Monte-Carlo statistics and certification reports served by
// ftserved are identical — after the JSON round-trip — to the in-process
// results, for any server worker count, and whether the tree was a cache
// hit or compiled for the request. MCStats carries no slices, so == is
// full bit-identity; the certify report's fault vector needs DeepEqual.
func TestWireDeterminism(t *testing.T) {
	fixtures := []struct {
		name string
		app  *model.Application
		m    int
		mc   sim.MCConfig
		cert *certify.Config // nil skips certification
	}{
		{
			name: "fig1", app: apps.Fig1(), m: 8,
			mc:   sim.MCConfig{Scenarios: 4000, Faults: 1, Seed: 42},
			cert: &certify.Config{MaxFaults: 1},
		},
		{
			name: "fig8", app: apps.Fig8(), m: 6,
			mc:   sim.MCConfig{Scenarios: 4000, Faults: 1, Seed: 7},
			cert: &certify.Config{MaxFaults: 1},
		},
		{
			name: "cruise-controller", app: apps.CruiseController(), m: 4,
			mc: sim.MCConfig{Scenarios: 1000, Faults: 1, Seed: 1},
			// Exhaustive certification of the 32-process controller is a
			// benchmark, not a unit test; eval coverage suffices here.
		},
	}

	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			// In-process reference, computed once.
			tree, err := core.FTQS(fx.app, core.FTQSOptions{M: fx.m})
			if err != nil {
				t.Fatalf("FTQS: %v", err)
			}
			wantStats, err := sim.MonteCarlo(tree, sim.MCConfig{
				Scenarios: fx.mc.Scenarios, Faults: fx.mc.Faults, Seed: fx.mc.Seed,
			})
			if err != nil {
				t.Fatalf("MonteCarlo: %v", err)
			}
			var wantReport certify.Report
			if fx.cert != nil {
				wantReport, err = certify.Certify(tree, certify.Config{MaxFaults: fx.cert.MaxFaults})
				if err != nil {
					t.Fatalf("Certify: %v", err)
				}
			}

			for _, workers := range []int{1, 3} {
				for _, mode := range []string{"miss", "hit"} {
					t.Run(fmt.Sprintf("workers=%d/%s", workers, mode), func(t *testing.T) {
						_, ts := newTestServer(t, Config{})
						ref := serveapi.TreeRef{App: appJSON(t, fx.app),
							Options: &core.FTQSOptions{M: fx.m}}
						if mode == "hit" {
							// Prime the cache, then address by key only.
							syn := synthesize(t, ts.URL, fx.app, core.FTQSOptions{M: fx.m})
							ref = serveapi.TreeRef{TreeKey: syn.TreeKey}
						}

						mc := fx.mc
						mc.Workers = workers
						var eval serveapi.EvalResponse
						if code := post(t, ts.URL+"/v1/eval", "", serveapi.EvalRequest{
							Format: serveapi.FormatV1, TreeRef: ref, Config: mc,
						}, &eval); code != http.StatusOK {
							t.Fatalf("eval: status %d", code)
						}
						if eval.CacheHit != (mode == "hit") {
							t.Fatalf("cache hit = %v in %s mode", eval.CacheHit, mode)
						}
						if got := eval.Stats; got != wantStats {
							t.Fatalf("served stats diverge from in-process:\nserved = %+v\nlocal  = %+v", got, wantStats)
						}

						if fx.cert == nil {
							return
						}
						cert := *fx.cert
						cert.Workers = workers
						var cr serveapi.CertifyResponse
						if code := post(t, ts.URL+"/v1/certify", "", serveapi.CertifyRequest{
							Format: serveapi.FormatV1, TreeRef: ref, Config: cert,
						}, &cr); code != http.StatusOK {
							t.Fatalf("certify: status %d", code)
						}
						if !cr.Certified {
							t.Fatalf("served certification failed: %+v", cr)
						}
						if got := cr.Report; !reflect.DeepEqual(got, wantReport) {
							t.Fatalf("served report diverges from in-process:\nserved = %+v\nlocal  = %+v", got, wantReport)
						}
					})
				}
			}
		})
	}
}
