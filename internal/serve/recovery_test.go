package serve

import (
	"net/http"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/serveapi"
	"ftsched/internal/sim"
)

// TestRecoveryDifferentiatesTreeKey: the recovery model rides inside the
// canonical application encoding, so the sha256 tree-cache key separates
// the same application under different models — and evaluation through the
// wire API reflects the model's fault-path cost.
func TestRecoveryDifferentiatesTreeKey(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := apps.Fig1()
	cp, err := base.WithRecovery(model.CheckpointModel(40, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := base.WithRecovery(model.RestartModel(2 * base.Mu()))
	if err != nil {
		t.Fatal(err)
	}

	keys := map[string]string{}
	for name, app := range map[string]*model.Application{"canonical": base, "checkpoint": cp, "restart": rs} {
		resp := synthesize(t, ts.URL, app, core.FTQSOptions{M: 8})
		if resp.CacheHit {
			t.Fatalf("%s: unexpected cache hit", name)
		}
		keys[name] = resp.TreeKey
	}
	if keys["canonical"] == keys["checkpoint"] || keys["canonical"] == keys["restart"] || keys["checkpoint"] == keys["restart"] {
		t.Fatalf("recovery models share tree keys: %v", keys)
	}

	// A second synthesis of the recovering application hits the cache under
	// its own key, and the cached tree evaluates clean by key reference.
	again := synthesize(t, ts.URL, cp, core.FTQSOptions{M: 8})
	if !again.CacheHit || again.TreeKey != keys["checkpoint"] {
		t.Fatalf("recovering application missed its own cache entry: %+v", again)
	}
	var eval serveapi.EvalResponse
	if code := post(t, ts.URL+"/v1/eval", "", serveapi.EvalRequest{
		Format:  serveapi.FormatV1,
		TreeRef: serveapi.TreeRef{TreeKey: keys["checkpoint"]},
		Config:  sim.MCConfig{Scenarios: 400, Faults: 1, Seed: 9},
	}, &eval); code != http.StatusOK {
		t.Fatalf("eval: status %d", code)
	}
	if eval.Stats.HardViolations != 0 {
		t.Fatalf("hard violations through the wire under checkpoint: %+v", eval.Stats)
	}
	if eval.Stats.MeanRecoveries == 0 {
		t.Fatal("vacuous wire evaluation: no recoveries observed")
	}
}
