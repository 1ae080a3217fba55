package faultwire

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ftsched/internal/serveapi"
)

func mustSpec(t *testing.T, s string) Spec {
	t.Helper()
	spec, err := ParseSpec(s)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", s, err)
	}
	return spec
}

func TestParseSpec(t *testing.T) {
	spec := mustSpec(t, "latency:p=0.2,ms=40;error:p=0.1,kind=rate_limited,retry=15;reset:p=0.05;truncate:p=0.04;corrupt:p=0.03;tenant=acme")
	want := Spec{
		Clauses: []Clause{
			{Kind: FaultLatency, Prob: 0.2, Delay: 40 * time.Millisecond},
			{Kind: FaultError, Prob: 0.1, ErrKind: serveapi.KindRateLimited, RetryAfterMillis: 15},
			{Kind: FaultReset, Prob: 0.05},
			{Kind: FaultTruncate, Prob: 0.04},
			{Kind: FaultCorrupt, Prob: 0.03},
		},
		Tenant: "acme",
	}
	if len(spec.Clauses) != len(want.Clauses) || spec.Tenant != want.Tenant {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}
	for i, c := range spec.Clauses {
		if c != want.Clauses[i] {
			t.Errorf("clause %d = %+v, want %+v", i, c, want.Clauses[i])
		}
	}

	// Defaults: error injects a retryable overloaded, latency has a
	// default delay, internal never carries a retry hint.
	spec = mustSpec(t, "error:p=1")
	if c := spec.Clauses[0]; c.ErrKind != serveapi.KindOverloaded || c.RetryAfterMillis <= 0 {
		t.Errorf("default error clause = %+v, want overloaded with a retry hint", c)
	}
	spec = mustSpec(t, "latency:p=1")
	if spec.Clauses[0].Delay <= 0 {
		t.Errorf("default latency clause = %+v, want a positive delay", spec.Clauses[0])
	}
	spec = mustSpec(t, "error:p=1,kind=internal,retry=99")
	if spec.Clauses[0].RetryAfterMillis != 0 {
		t.Errorf("internal error clause carries retry hint %d, want 0", spec.Clauses[0].RetryAfterMillis)
	}
	if spec := mustSpec(t, ""); len(spec.Clauses) != 0 {
		t.Errorf("empty spec has %d clauses", len(spec.Clauses))
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"explode:p=0.5",                  // unknown kind
		"latency",                        // missing p=
		"latency:ms=40",                  // missing p=
		"latency:p=2",                    // probability out of range
		"latency:p=nope",                 // not a number
		"latency:p=0.1,ms=0",             // non-positive delay
		"reset:p=0.1,ms=40",              // ms on non-latency
		"reset:p=0.1,kind=draining",      // kind on non-error
		"error:p=0.1,kind=unschedulable", // non-injectable kind
		"error:p=0.1,retry=-1",           // negative retry hint
		"latency:p",                      // option not key=value
		"latency:p=0.1,zap=3",            // unknown option
		"tenant=",                        // empty tenant
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) = nil error, want ParseError", bad)
		} else {
			var perr *ParseError
			if !errors.As(err, &perr) {
				t.Errorf("ParseSpec(%q) error type %T, want *ParseError", bad, err)
			}
		}
	}
}

// TestScheduleDeterministic gates the acceptance criterion: same spec +
// seed → same injected-fault schedule, independent of construction and
// of which indices are queried in what order.
func TestScheduleDeterministic(t *testing.T) {
	spec := mustSpec(t, "latency:p=0.15,ms=5;error:p=0.1;reset:p=0.05;truncate:p=0.05;corrupt:p=0.05")
	a := New(spec, 42, nil)
	b := New(spec, 42, nil)
	other := New(spec, 43, nil)

	const n = 2000
	counts := map[FaultKind]int{}
	for i := int64(0); i < n; i++ {
		da, db := a.Decision(i), b.Decision(n-1-i)
		if da != a.Decision(i) {
			t.Fatalf("Decision(%d) is not stable", i)
		}
		if db != b.Decision(n-1-i) {
			t.Fatalf("Decision(%d) is not stable", n-1-i)
		}
		if da != b.Decision(i) {
			t.Fatalf("Decision(%d) differs across injectors with identical spec+seed", i)
		}
		counts[da.Kind]++
	}
	// Every fault kind fires at its configured order of magnitude.
	for kind, p := range map[FaultKind]float64{
		FaultLatency: 0.15, FaultError: 0.1, FaultReset: 0.05,
		FaultTruncate: 0.05, FaultCorrupt: 0.05,
	} {
		got := counts[kind]
		if lo, hi := int(p*n/2), int(p*n*2); got < lo || got > hi {
			t.Errorf("kind %v fired %d/%d times, want within [%d,%d]", kind, got, n, lo, hi)
		}
	}
	// A different seed produces a different schedule.
	diff := 0
	for i := int64(0); i < n; i++ {
		if a.Decision(i) != other.Decision(i) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("seeds 42 and 43 produced identical schedules")
	}
}

// okHandler is a stand-in API handler with a JSON body big enough to
// damage.
func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"format": "test/v1", "payload": strings.Repeat("x", 256),
		})
	})
}

func postV1(t *testing.T, url string) (*http.Response, []byte, error) {
	t.Helper()
	resp, err := http.Post(url+"/v1/eval", "application/json", strings.NewReader("{}"))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

func TestMiddlewareError(t *testing.T) {
	in := New(mustSpec(t, "error:p=1,kind=rate_limited,retry=15"), 1, nil)
	srv := httptest.NewServer(in.Middleware(okHandler()))
	defer srv.Close()

	resp, body, err := postV1(t, srv.URL)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	var werr serveapi.ErrorResponse
	if err := json.Unmarshal(body, &werr); err != nil {
		t.Fatalf("injected error body is not JSON: %v", err)
	}
	if werr.Err.Kind != serveapi.KindRateLimited || werr.Err.RetryAfterMillis != 15 {
		t.Errorf("injected error = %+v, want rate_limited with retry 15", werr.Err)
	}
	if in.Injected() != 1 {
		t.Errorf("Injected() = %d, want 1", in.Injected())
	}
}

func TestMiddlewareTruncateAndCorrupt(t *testing.T) {
	for _, tc := range []struct {
		spec string
	}{{"truncate:p=1"}, {"corrupt:p=1"}} {
		in := New(mustSpec(t, tc.spec), 1, nil)
		srv := httptest.NewServer(in.Middleware(okHandler()))
		resp, body, err := postV1(t, srv.URL)
		srv.Close()
		if err != nil {
			t.Fatalf("%s: post: %v", tc.spec, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200 (damage is body-level)", tc.spec, resp.StatusCode)
		}
		var out map[string]any
		if err := json.Unmarshal(body, &out); err == nil {
			t.Errorf("%s: damaged body still decodes as JSON", tc.spec)
		}
	}
}

func TestMiddlewareReset(t *testing.T) {
	in := New(mustSpec(t, "reset:p=1"), 1, nil)
	srv := httptest.NewServer(in.Middleware(okHandler()))
	defer srv.Close()

	_, _, err := postV1(t, srv.URL)
	if err == nil {
		t.Fatal("reset fault produced a clean response, want a transport error")
	}
}

func TestMiddlewareLatency(t *testing.T) {
	in := New(mustSpec(t, "latency:p=1,ms=30"), 1, nil)
	srv := httptest.NewServer(in.Middleware(okHandler()))
	defer srv.Close()

	start := time.Now()
	resp, _, err := postV1(t, srv.URL)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("request took %v, want >= 30ms injected latency", d)
	}
}

// TestTargeting pins which requests consume schedule indices: POST /v1/*
// of the targeted tenant only — health probes, GETs and other tenants
// pass through clean.
func TestTargeting(t *testing.T) {
	in := New(mustSpec(t, "error:p=1;tenant=acme"), 1, nil)
	srv := httptest.NewServer(in.Middleware(okHandler()))
	defer srv.Close()

	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	post := func(path, tenant string) int {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+path, strings.NewReader("{}"))
		if tenant != "" {
			req.Header.Set(serveapi.TenantHeader, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/v1/healthz"); code != http.StatusOK {
		t.Errorf("healthz through p=1 error injector = %d, want 200 (exempt)", code)
	}
	if code := post("/other", "acme"); code != http.StatusOK {
		t.Errorf("POST outside /v1/ = %d, want 200 (exempt)", code)
	}
	if code := post("/v1/eval", "other"); code != http.StatusOK {
		t.Errorf("POST for untargeted tenant = %d, want 200 (exempt)", code)
	}
	if in.next.Load() != 0 {
		t.Fatalf("exempt requests consumed %d schedule indices, want 0", in.next.Load())
	}
	if code := post("/v1/eval", "acme"); code != http.StatusServiceUnavailable {
		t.Errorf("POST for targeted tenant = %d, want injected 503", code)
	}
	if in.next.Load() != 1 || in.Injected() != 1 {
		t.Errorf("intercepted/injected = %d/%d, want 1/1", in.next.Load(), in.Injected())
	}

	// Without a tenant filter the default tenant is targeted too.
	in2 := New(mustSpec(t, "error:p=1"), 1, nil)
	srv2 := httptest.NewServer(in2.Middleware(okHandler()))
	defer srv2.Close()
	resp, err := http.Post(srv2.URL+"/v1/eval", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("unfiltered injector let the default tenant through: %d", resp.StatusCode)
	}
}
