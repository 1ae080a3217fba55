package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ftsched/internal/appio"
	"ftsched/internal/apps"
	"ftsched/internal/certify"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/runtime"
	"ftsched/internal/serveapi"
	"ftsched/internal/sim"
)

func appJSON(t *testing.T, app *model.Application) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := appio.EncodeApplication(&buf, app); err != nil {
		t.Fatalf("encode app: %v", err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post issues one request and decodes the body into out (when non-nil),
// returning the status code.
func post(t *testing.T, url, tenant string, req, out any) int {
	t.Helper()
	code, err := do(url, tenant, req, out)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// do is post without the *testing.T, for goroutines other than the
// test's own.
func do(url, tenant string, req, out any) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, fmt.Errorf("marshal: %v", err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("new request: %v", err)
	}
	if tenant != "" {
		hreq.Header.Set(serveapi.TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return 0, fmt.Errorf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode response (%d): %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode, nil
}

func wireErr(t *testing.T, url, tenant string, req any, wantCode int, wantKind string) serveapi.Error {
	t.Helper()
	var er serveapi.ErrorResponse
	code := post(t, url, tenant, req, &er)
	if code != wantCode || er.Err.Kind != wantKind {
		t.Fatalf("got %d/%q (%s), want %d/%q", code, er.Err.Kind, er.Err.Message, wantCode, wantKind)
	}
	return er.Err
}

func synthesize(t *testing.T, url string, app *model.Application, opts core.FTQSOptions) serveapi.SynthesizeResponse {
	t.Helper()
	var resp serveapi.SynthesizeResponse
	if code := post(t, url+"/v1/synthesize", "", serveapi.SynthesizeRequest{
		Format: serveapi.FormatV1, App: appJSON(t, app), Options: opts,
	}, &resp); code != http.StatusOK {
		t.Fatalf("synthesize: status %d", code)
	}
	return resp
}

func TestSynthesizeCachesByCanonicalKey(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	app := apps.Fig1()

	first := synthesize(t, ts.URL, app, core.FTQSOptions{M: 8})
	if first.CacheHit {
		t.Fatal("first synthesis reported a cache hit")
	}
	if first.Nodes < 1 || first.TreeKey == "" {
		t.Fatalf("implausible response %+v", first)
	}

	second := synthesize(t, ts.URL, app, core.FTQSOptions{M: 8})
	if !second.CacheHit || second.TreeKey != first.TreeKey {
		t.Fatalf("second synthesis: %+v, want hit on %s", second, first.TreeKey)
	}

	// Different options derive a different key.
	other := synthesize(t, ts.URL, app, core.FTQSOptions{M: 2})
	if other.TreeKey == first.TreeKey {
		t.Fatal("M=2 and M=8 share a tree key")
	}

	// Workers is an execution hint, not identity.
	hint := synthesize(t, ts.URL, app, core.FTQSOptions{M: 8, Workers: 3})
	if !hint.CacheHit || hint.TreeKey != first.TreeKey {
		t.Fatalf("workers changed the key: %+v", hint)
	}
}

func TestUnknownTreeKeyIsTyped(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wireErr(t, ts.URL+"/v1/eval", "", serveapi.EvalRequest{
		Format:  serveapi.FormatV1,
		TreeRef: serveapi.TreeRef{TreeKey: "deadbeef"},
		Config:  sim.MCConfig{Scenarios: 10},
	}, http.StatusNotFound, serveapi.KindUnknownTree)
}

func TestUnschedulableIsTyped(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Fig. 1 with its period as the only change is schedulable; an
	// impossible fault bound is the cheapest unschedulable input.
	app := model.NewApplication("impossible", 10, 3, 1)
	app.AddProcess(model.Process{Name: "P1", BCET: 8, AET: 8, WCET: 9, Deadline: 10, Kind: model.Hard})
	if err := app.Validate(); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	wireErr(t, ts.URL+"/v1/synthesize", "", serveapi.SynthesizeRequest{
		Format: serveapi.FormatV1, App: appJSON(t, app), Options: core.FTQSOptions{M: 4},
	}, http.StatusUnprocessableEntity, serveapi.KindUnschedulable)
}

func TestDispatchRejectsOutOfModelCycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	app := apps.Fig1()
	syn := synthesize(t, ts.URL, app, core.FTQSOptions{M: 4})

	durations := make([]model.Time, app.N())
	for i := 0; i < app.N(); i++ {
		durations[i] = app.Proc(model.ProcessID(i)).WCET
	}
	bad := append([]model.Time(nil), durations...)
	bad[1] = app.Proc(1).WCET + 100 // beyond WCET: out of model
	werr := wireErr(t, ts.URL+"/v1/dispatch", "", serveapi.DispatchRequest{
		Format:  serveapi.FormatV1,
		TreeRef: serveapi.TreeRef{TreeKey: syn.TreeKey},
		Cycles: []serveapi.CycleJSON{
			{Durations: durations},
			{Durations: bad},
		},
	}, http.StatusBadRequest, serveapi.KindBadRequest)
	if !strings.Contains(werr.Message, "cycle 1") {
		t.Fatalf("rejection does not name the cycle: %q", werr.Message)
	}
}

func TestDispatchMatchesInProcess(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	app := apps.Fig1()
	syn := synthesize(t, ts.URL, app, core.FTQSOptions{M: 8})

	tree, err := core.FTQS(app, core.FTQSOptions{M: 8})
	if err != nil {
		t.Fatalf("FTQS: %v", err)
	}
	disp := mustDispatcher(t, tree)

	// Deterministically sampled in-model cycles, faults included.
	const cycles = 300
	var rng sim.RNG
	var sc sim.Scenario
	reqCycles := make([]serveapi.CycleJSON, cycles)
	want := make([]serveapi.CycleResultJSON, cycles)
	for i := 0; i < cycles; i++ {
		rng.Reseed(sim.ScenarioSeed(7, i))
		if err := sim.SampleRNGInto(&sc, app, &rng, i%(app.K()+1), nil); err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		cp := sim.Scenario{
			Durations: append([]model.Time(nil), sc.Durations...),
			FaultsAt:  append([]int(nil), sc.FaultsAt...),
			NFaults:   sc.NFaults,
		}
		reqCycles[i] = serveapi.CycleJSONOf(cp)
		res, err := disp.Run(cp)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		want[i] = serveapi.ResultJSON(&res)
	}

	for _, workers := range []int{1, 3} {
		var resp serveapi.DispatchResponse
		if code := post(t, ts.URL+"/v1/dispatch", "", serveapi.DispatchRequest{
			Format:  serveapi.FormatV1,
			TreeRef: serveapi.TreeRef{TreeKey: syn.TreeKey},
			Cycles:  reqCycles,
			Workers: workers,
		}, &resp); code != http.StatusOK {
			t.Fatalf("dispatch: status %d", code)
		}
		if !resp.CacheHit {
			t.Fatal("dispatch missed the cache")
		}
		if !reflect.DeepEqual(resp.Results, want) {
			t.Fatalf("workers=%d: served results diverge from in-process dispatch", workers)
		}
	}
}

func TestRateLimitRejectionIsTyped(t *testing.T) {
	clock := time.Unix(1000, 0)
	s, ts := newTestServer(t, Config{
		Limits: Limits{RatePerSec: 1, Burst: 1},
		Now:    func() time.Time { return clock },
	})
	_ = s
	app := apps.Fig1()

	// First request takes the only token.
	synthesize(t, ts.URL, app, core.FTQSOptions{M: 2})
	werr := wireErr(t, ts.URL+"/v1/synthesize", "", serveapi.SynthesizeRequest{
		Format: serveapi.FormatV1, App: appJSON(t, app), Options: core.FTQSOptions{M: 2},
	}, http.StatusTooManyRequests, serveapi.KindRateLimited)
	if werr.RetryAfterMillis <= 0 || werr.Tenant != serveapi.DefaultTenant {
		t.Fatalf("rejection carries no retry hint/tenant: %+v", werr)
	}

	// Tenants are isolated: a fresh tenant has its own bucket.
	var resp serveapi.SynthesizeResponse
	if code := post(t, ts.URL+"/v1/synthesize", "other", serveapi.SynthesizeRequest{
		Format: serveapi.FormatV1, App: appJSON(t, app), Options: core.FTQSOptions{M: 2},
	}, &resp); code != http.StatusOK {
		t.Fatalf("other tenant rejected: %d", code)
	}

	// Advancing the clock refills the bucket.
	clock = clock.Add(2 * time.Second)
	if code := post(t, ts.URL+"/v1/synthesize", "", serveapi.SynthesizeRequest{
		Format: serveapi.FormatV1, App: appJSON(t, app), Options: core.FTQSOptions{M: 2},
	}, &resp); code != http.StatusOK {
		t.Fatalf("refilled bucket still rejects: %d", code)
	}
}

func TestInFlightCapRejectionIsTyped(t *testing.T) {
	reg := newTenants(Limits{MaxInFlight: 1})
	tn := reg.get("dev")
	done1, werr := tn.admit(time.Now())
	if werr != nil {
		t.Fatalf("first admit rejected: %v", werr)
	}
	if _, werr := tn.admit(time.Now()); werr == nil || werr.Kind != serveapi.KindOverloaded || werr.Code != http.StatusServiceUnavailable {
		t.Fatalf("second admit: %v, want 503 overloaded", werr)
	}
	done1()
	done2, werr := tn.admit(time.Now())
	if werr != nil {
		t.Fatalf("admit after release rejected: %v", werr)
	}
	done2()
}

// TestDrainLosesNothing races Drain against a burst of requests: every
// request either completes 200 or is rejected with the typed draining
// error — no connection drops, no lost accepted work — and Drain returns
// only after the accepted ones finished.
func TestDrainLosesNothing(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	app := apps.Fig1()
	syn := synthesize(t, ts.URL, app, core.FTQSOptions{M: 4})

	durations := make([]model.Time, app.N())
	for i := 0; i < app.N(); i++ {
		durations[i] = app.Proc(model.ProcessID(i)).WCET
	}
	req := serveapi.DispatchRequest{
		Format:  serveapi.FormatV1,
		TreeRef: serveapi.TreeRef{TreeKey: syn.TreeKey},
		Cycles:  []serveapi.CycleJSON{{Durations: durations}},
	}
	body, _ := json.Marshal(req)

	const clients = 24
	codes := make([]int, clients)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/dispatch", "application/json", bytes.NewReader(body))
			if err != nil {
				codes[i] = -1
				return
			}
			defer resp.Body.Close()
			var er serveapi.ErrorResponse
			_ = json.NewDecoder(resp.Body).Decode(&er)
			codes[i] = resp.StatusCode
			if resp.StatusCode == http.StatusServiceUnavailable && er.Err.Kind != serveapi.KindDraining {
				codes[i] = -2
			}
		}(i)
	}
	close(start)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	ok, drained := 0, 0
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			drained++
		default:
			t.Fatalf("client %d: unexpected outcome %d", i, c)
		}
	}
	t.Logf("drain outcome: %d completed, %d rejected draining", ok, drained)

	// New work after the drain is rejected with the typed error.
	wireErr(t, ts.URL+"/v1/dispatch", "", req, http.StatusServiceUnavailable, serveapi.KindDraining)
}

// TestReloadSwapsAtomically hammers dispatch while reloading the tree:
// every request succeeds (on the old or new artifact — never a torn one)
// and the generation counter advances.
func TestReloadSwapsAtomically(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	app := apps.Fig1()
	syn := synthesize(t, ts.URL, app, core.FTQSOptions{M: 8})

	durations := make([]model.Time, app.N())
	for i := 0; i < app.N(); i++ {
		durations[i] = app.Proc(model.ProcessID(i)).WCET
	}
	dreq, _ := json.Marshal(serveapi.DispatchRequest{
		Format:  serveapi.FormatV1,
		TreeRef: serveapi.TreeRef{TreeKey: syn.TreeKey},
		Cycles:  []serveapi.CycleJSON{{Durations: durations}},
	})

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/dispatch", "application/json", bytes.NewReader(dreq))
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("dispatch during reload: status %d", resp.StatusCode)
					resp.Body.Close()
					return
				}
				resp.Body.Close()
			}
		}()
	}

	lastGen := 0
	for i := 0; i < 5; i++ {
		var resp serveapi.ReloadResponse
		if code := post(t, ts.URL+"/v1/reload", "", serveapi.ReloadRequest{
			Format: serveapi.FormatV1, TreeKey: syn.TreeKey,
			Trim: &serveapi.TrimJSON{Scenarios: 64, Seed: int64(i)},
		}, &resp); code != http.StatusOK {
			t.Fatalf("reload %d: status %d", i, code)
		}
		if resp.Generation != i+1 {
			t.Fatalf("reload %d: generation %d", i, resp.Generation)
		}
		lastGen = resp.Generation
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if lastGen != 5 {
		t.Fatalf("generation = %d, want 5", lastGen)
	}
}

func TestHealthzAndTenantMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	app := apps.Fig1()
	synthesize(t, ts.URL, app, core.FTQSOptions{M: 2})

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var health serveapi.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Trees != 1 || health.Tenants != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	// The default tenant exists after one request; its metrics endpoint
	// serves the Prometheus exposition with the serve counters.
	mresp, err := http.Get(ts.URL + "/v1/tenants/default/metrics")
	if err != nil {
		t.Fatalf("tenant metrics: %v", err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	if mresp.StatusCode != http.StatusOK || !strings.Contains(buf.String(), "ftsched_serve_requests_total") {
		t.Fatalf("tenant metrics scrape (%d): %.200s", mresp.StatusCode, buf.String())
	}

	// Unknown tenants are typed 404s.
	uresp, err := http.Get(ts.URL + "/v1/tenants/nobody/metrics")
	if err != nil {
		t.Fatalf("unknown tenant: %v", err)
	}
	defer uresp.Body.Close()
	if uresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d", uresp.StatusCode)
	}
}

func TestCertifyCounterexampleIsReplayable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Every tree the server synthesises certifies, so this asserts the
	// certified path of a served certification; TestCertifyServesCounterexample
	// seeds the cache with an unsafe tree for the counterexample path.
	app := apps.Fig1()
	syn := synthesize(t, ts.URL, app, core.FTQSOptions{M: 1})
	var resp serveapi.CertifyResponse
	if code := post(t, ts.URL+"/v1/certify", "", serveapi.CertifyRequest{
		Format:  serveapi.FormatV1,
		TreeRef: serveapi.TreeRef{TreeKey: syn.TreeKey},
		Config:  certify.Config{MaxFaults: app.K()},
	}, &resp); code != http.StatusOK {
		t.Fatalf("certify: status %d", code)
	}
	if !resp.Certified {
		t.Fatalf("M=1 Fig.1 tree failed certification: %+v", resp.Report)
	}
	if resp.Report.Scenarios <= 0 {
		t.Fatalf("report explored nothing: %+v", resp.Report)
	}

	inProc, err := certify.Certify(mustTree(t, app, 1), certify.Config{MaxFaults: app.K()})
	if err != nil {
		t.Fatalf("in-process certify: %v", err)
	}
	if !reflect.DeepEqual(resp.Report, inProc) {
		t.Fatalf("served report diverges:\nserved = %+v\nlocal  = %+v", resp.Report, inProc)
	}
}

func mustTree(t *testing.T, app *model.Application, m int) *core.Tree {
	t.Helper()
	tree, err := core.FTQS(app, core.FTQSOptions{M: m})
	if err != nil {
		t.Fatalf("FTQS: %v", err)
	}
	return tree
}

func mustDispatcher(t *testing.T, tree *core.Tree) *runtime.Dispatcher {
	t.Helper()
	disp, err := runtime.NewDispatcher(tree)
	if err != nil {
		t.Fatalf("dispatcher: %v", err)
	}
	return disp
}
