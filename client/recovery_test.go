package client

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"ftsched/internal/appio"
	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/serve"
	"ftsched/internal/serveapi"
	"ftsched/internal/sim"
)

// TestRecoveryRoundTripsThroughClient: a recovering application travels
// through the typed client unchanged — it derives its own SHA-256 tree key
// (distinct from the canonical application's) and evaluates clean by key
// reference.
func TestRecoveryRoundTripsThroughClient(t *testing.T) {
	srv := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer srv.Close()
	c := New(srv.URL)
	ctx := context.Background()

	encode := func(app *model.Application) []byte {
		var buf bytes.Buffer
		if err := appio.EncodeApplication(&buf, app); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := apps.Fig1()
	cp, err := base.WithRecovery(model.CheckpointModel(40, 3, 7))
	if err != nil {
		t.Fatal(err)
	}

	synth := func(app *model.Application) *serveapi.SynthesizeResponse {
		resp, err := c.Synthesize(ctx, serveapi.SynthesizeRequest{
			Format: serveapi.FormatV1, App: encode(app),
			Options: core.FTQSOptions{M: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	canonical := synth(base)
	recovering := synth(cp)
	if canonical.TreeKey == recovering.TreeKey {
		t.Fatalf("recovery model not part of the tree key: %s", canonical.TreeKey)
	}

	eval, err := c.Eval(ctx, serveapi.EvalRequest{
		Format:  serveapi.FormatV1,
		TreeRef: serveapi.TreeRef{TreeKey: recovering.TreeKey},
		Config:  sim.MCConfig{Scenarios: 400, Faults: 1, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if eval.Stats.HardViolations != 0 || eval.Stats.MeanRecoveries == 0 {
		t.Fatalf("wire evaluation under checkpoint: %+v", eval.Stats)
	}
}
