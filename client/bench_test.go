package client

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"ftsched/internal/appio"
	"ftsched/internal/apps"
	"ftsched/internal/model"
	"ftsched/internal/serve"
	"ftsched/internal/serveapi"
	"ftsched/internal/sim"
)

// BenchmarkServedDispatch is one dispatch round trip on loopback: the
// client encodes a 64-cycle cruise-controller batch, an in-process
// ftserved (FTQS tree, M=16, cached) decodes, dispatches and encodes the
// results, and the client decodes them. B/op counts both ends.
func BenchmarkServedDispatch(b *testing.B) {
	srv := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer srv.Close()
	c := New(srv.URL)
	ctx := context.Background()

	app := apps.CruiseController()
	var appJSON bytes.Buffer
	if err := appio.EncodeApplication(&appJSON, app); err != nil {
		b.Fatal(err)
	}
	syn, err := c.Synthesize(ctx, serveapi.SynthesizeRequest{App: appJSON.Bytes(), Options: serveapi.FTQSOptionsJSON{M: 16}})
	if err != nil {
		b.Fatal(err)
	}
	req := serveapi.DispatchRequest{TreeRef: serveapi.TreeRef{TreeKey: syn.TreeKey}}
	var sc sim.Scenario
	for i := 0; i < 64; i++ {
		rng := sim.NewRNG(sim.ScenarioSeed(3, i))
		if err := sim.SampleRNGInto(&sc, app, &rng, i%(app.K()+1), nil); err != nil {
			b.Fatal(err)
		}
		req.Cycles = append(req.Cycles, serveapi.CycleJSONOf(sim.Scenario{
			Durations: append([]model.Time(nil), sc.Durations...),
			FaultsAt:  append([]int(nil), sc.FaultsAt...),
		}))
	}
	// Warm the connection and the server's per-request paths.
	if _, err := c.Dispatch(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.Dispatch(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.Results) != len(req.Cycles) {
			b.Fatalf("%d results for %d cycles", len(resp.Results), len(req.Cycles))
		}
	}
}
