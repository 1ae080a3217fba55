package serve

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/obs"
	"ftsched/internal/serveapi"
	"ftsched/internal/sim"
)

// TestScrapeDuringDrainObservesCounters is the end-to-end drain contract
// of the ftserved composition: while accepted requests are still running
// out a drain, the metrics endpoint keeps answering scrapes, and the
// final scrape — taken after the drain completes but before the metrics
// server shuts down (the ftserved shutdown order) — accounts for every
// accepted request. Nothing accepted is lost, nothing rejected is
// silently dropped.
func TestScrapeDuringDrainObservesCounters(t *testing.T) {
	collector := obs.NewMetrics()
	maddr, mshutdown, err := obs.Serve("127.0.0.1:0", collector)
	if err != nil {
		t.Fatal(err)
	}
	defer mshutdown()

	s, ts := newTestServer(t, Config{Metrics: collector})
	app := apps.Fig8()
	syn := synthesize(t, ts.URL, app, core.FTQSOptions{M: 6})

	// A dispatch batch big enough to still be in flight when Drain starts.
	cycles := make([]serveapi.CycleJSON, 0, 2000)
	var rng sim.RNG
	for i := 0; i < 2000; i++ {
		rng.Reseed(sim.ScenarioSeed(11, i))
		var sc sim.Scenario
		if err := sim.SampleRNGInto(&sc, app, &rng, i%(app.K()+1), nil); err != nil {
			t.Fatal(err)
		}
		cycles = append(cycles, serveapi.CycleJSONOf(sc))
	}
	req := serveapi.DispatchRequest{
		Format:  serveapi.FormatV1,
		TreeRef: serveapi.TreeRef{TreeKey: syn.TreeKey},
		Cycles:  cycles,
	}

	var accepted, rejected atomic.Int64
	inFlight := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var resp serveapi.DispatchResponse
		close(inFlight)
		switch code := post(t, ts.URL+"/v1/dispatch", "", req, &resp); code {
		case http.StatusOK:
			accepted.Add(1)
		case http.StatusServiceUnavailable:
			rejected.Add(1)
		default:
			t.Errorf("dispatch during drain: status %d", code)
		}
	}()
	<-inFlight

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(t.Context()) }()
	for !s.draining.Load() {
		time.Sleep(time.Millisecond)
	}

	// Scrape while the drain is in progress: the endpoint must answer.
	mid := scrape(t, maddr)
	if !strings.Contains(mid, "ftsched_serve_requests_total") {
		t.Fatalf("mid-drain scrape missing serve counters:\n%.300s", mid)
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	<-done
	if got := accepted.Load() + rejected.Load(); got != 1 {
		t.Fatalf("request neither completed nor rejected (accepted %d, rejected %d)",
			accepted.Load(), rejected.Load())
	}

	// The post-drain, pre-shutdown scrape sees the fully drained counters:
	// synthesize + every accepted dispatch, nothing in flight.
	final := scrape(t, maddr)
	want := "ftsched_serve_requests_total " + strconv.FormatInt(1+accepted.Load(), 10)
	if !strings.Contains(final, want) {
		t.Fatalf("final scrape missing %q:\n%s", want, grepLines(final, "ftsched_serve_"))
	}
	if err := mshutdown(); err != nil {
		t.Fatalf("metrics shutdown after drain: %v", err)
	}
}

func scrape(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape body: %v", err)
	}
	return string(body)
}

func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
