package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ftsched/internal/obs"
	"ftsched/internal/serveapi"
)

// newTestClient builds a client with deterministic time, sleep and
// jitter: rand always returns 1 (backoff = full budget), sleep records
// waits without sleeping, now is a settable fake clock.
func newTestClient(base string, clock *time.Time, waits *[]time.Duration, opts ...Option) *Client {
	c := New(base, opts...)
	c.now = func() time.Time { return *clock }
	c.sleep = func(ctx context.Context, d time.Duration) error {
		if waits != nil {
			*waits = append(*waits, d)
		}
		*clock = clock.Add(d)
		return ctx.Err()
	}
	c.rand = func() float64 { return 1 }
	return c
}

// errServer answers every /v1/ POST with the given typed wire error and
// counts attempts.
func errServer(kind string, code int, retryMS int64) (*httptest.Server, *atomic.Int64) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(serveapi.ErrorResponse{
			Format: serveapi.FormatV1,
			Err: serveapi.Error{Code: code, Kind: kind, Message: "test " + kind,
				RetryAfterMillis: retryMS},
		})
	}))
	return srv, &hits
}

// kindHTTPCode picks a plausible HTTP status for each kind so the table
// round-trips realistic responses.
func kindHTTPCode(kind string) int {
	switch kind {
	case serveapi.KindRateLimited:
		return http.StatusTooManyRequests
	case serveapi.KindOverloaded, serveapi.KindDraining:
		return http.StatusServiceUnavailable
	case serveapi.KindInternal:
		return http.StatusInternalServerError
	case serveapi.KindUnknownTree:
		return http.StatusNotFound
	case serveapi.KindUnschedulable:
		return http.StatusUnprocessableEntity
	default:
		return http.StatusBadRequest
	}
}

// TestKindTaxonomyRetryClassification is the satellite contract: every
// kind of the serveapi taxonomy is explicitly classified, round-trips
// the wire through a retrying client, and invalid_config is never
// retried.
func TestKindTaxonomyRetryClassification(t *testing.T) {
	wantRetryable := map[string]bool{
		serveapi.KindBadRequest:    false,
		serveapi.KindUnknownFormat: false,
		serveapi.KindInvalidConfig: false,
		serveapi.KindInvalidApp:    false,
		serveapi.KindUnknownTree:   false,
		serveapi.KindUnschedulable: false,
		serveapi.KindRateLimited:   true,
		serveapi.KindOverloaded:    true,
		serveapi.KindDraining:      true,
		serveapi.KindInternal:      false,
	}
	kinds := serveapi.AllKinds()
	if len(wantRetryable) != len(kinds) {
		t.Fatalf("classification table has %d kinds, taxonomy has %d — classify the new kind", len(wantRetryable), len(kinds))
	}
	const attempts = 3
	for _, kind := range kinds {
		want, classified := wantRetryable[kind]
		if !classified {
			t.Errorf("kind %q is not in the classification table", kind)
			continue
		}
		if got := RetryableKind(kind); got != want {
			t.Errorf("RetryableKind(%q) = %v, want %v", kind, got, want)
		}

		srv, hits := errServer(kind, kindHTTPCode(kind), 5)
		clock := time.Unix(0, 0)
		c := newTestClient(srv.URL, &clock, nil,
			WithRetryPolicy(RetryPolicy{MaxAttempts: attempts, BreakerThreshold: 0}))
		_, err := c.Eval(context.Background(), serveapi.EvalRequest{})
		srv.Close()
		if err == nil {
			t.Fatalf("kind %q: call unexpectedly succeeded", kind)
		}

		// The typed error must round-trip the wire intact either way.
		var werr *serveapi.Error
		if !errors.As(err, &werr) {
			t.Fatalf("kind %q: error %T does not unwrap to *serveapi.Error", kind, err)
		}
		if werr.Kind != kind || werr.Code != kindHTTPCode(kind) {
			t.Errorf("kind %q round-tripped as kind=%q code=%d", kind, werr.Kind, werr.Code)
		}

		if want {
			if got := hits.Load(); got != attempts {
				t.Errorf("kind %q: %d attempts, want %d (retryable)", kind, got, attempts)
			}
			var rex *RetryExhaustedError
			if !errors.As(err, &rex) {
				t.Errorf("kind %q: exhausted retries returned %T, want *RetryExhaustedError", kind, err)
			} else if len(rex.Attempts) != attempts {
				t.Errorf("kind %q: trace has %d attempts, want %d", kind, len(rex.Attempts), attempts)
			}
		} else {
			if got := hits.Load(); got != 1 {
				t.Errorf("kind %q: %d attempts, want exactly 1 (non-retryable)", kind, got)
			}
			if _, bare := err.(*serveapi.Error); !bare {
				t.Errorf("kind %q: non-retryable error surfaced as %T, want bare *serveapi.Error", kind, err)
			}
		}
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if hits.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(serveapi.ErrorResponse{
				Format: serveapi.FormatV1,
				Err:    serveapi.Error{Code: 503, Kind: serveapi.KindOverloaded, RetryAfterMillis: 7},
			})
			return
		}
		_ = json.NewEncoder(w).Encode(serveapi.HealthResponse{Format: serveapi.FormatV1, Status: "ok"})
	}))
	defer srv.Close()

	m := obs.NewMetrics()
	clock := time.Unix(0, 0)
	var waits []time.Duration
	c := newTestClient(srv.URL, &clock, &waits,
		WithRetryPolicy(DefaultRetryPolicy()), WithMetrics(m))
	if _, err := c.Eval(context.Background(), serveapi.EvalRequest{}); err != nil {
		t.Fatalf("Eval with 2 transient 503s: %v", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
	for i, w := range waits {
		if w < 7*time.Millisecond {
			t.Errorf("backoff %d = %v, below the server's RetryAfterMillis floor", i, w)
		}
	}
	if got := m.Counter(obs.ClientRetries); got != 2 {
		t.Errorf("ClientRetries = %d, want 2", got)
	}
	if got := m.Counter(obs.ClientAttempts); got != 3 {
		t.Errorf("ClientAttempts = %d, want 3", got)
	}
	if got := m.Counter(obs.ClientRequests); got != 1 {
		t.Errorf("ClientRequests = %d, want 1", got)
	}
}

func TestBackoffShape(t *testing.T) {
	p := DefaultRetryPolicy()
	// Full budget (rand = 1) grows geometrically and caps at MaxDelay.
	one := func() float64 { return 1 }
	if got := p.backoff(0, 0, one); got != p.BaseDelay {
		t.Errorf("backoff(0) = %v, want %v", got, p.BaseDelay)
	}
	if got := p.backoff(1, 0, one); got != 2*p.BaseDelay {
		t.Errorf("backoff(1) = %v, want %v", got, 2*p.BaseDelay)
	}
	if got := p.backoff(30, 0, one); got != p.MaxDelay {
		t.Errorf("backoff(30) = %v, want cap %v", got, p.MaxDelay)
	}
	// Full jitter: rand = 0 sleeps 0 unless the server set a floor.
	zero := func() float64 { return 0 }
	if got := p.backoff(0, 0, zero); got != 0 {
		t.Errorf("backoff with rand=0 = %v, want 0", got)
	}
	if got := p.backoff(0, 42*time.Millisecond, zero); got != 42*time.Millisecond {
		t.Errorf("backoff floor = %v, want 42ms", got)
	}
}

func TestContextDeadlineStopsBackoff(t *testing.T) {
	srv, hits := errServer(serveapi.KindOverloaded, 503, 60_000)
	defer srv.Close()

	// The fake clock must agree with the real one here: the context
	// deadline is real, the backoff arithmetic uses the fake now().
	clock := time.Now()
	c := newTestClient(srv.URL, &clock, nil, WithRetryPolicy(DefaultRetryPolicy()))
	ctx, cancel := context.WithDeadline(context.Background(), clock.Add(time.Second))
	defer cancel()
	_, err := c.Eval(ctx, serveapi.EvalRequest{})
	var rex *RetryExhaustedError
	if !errors.As(err, &rex) {
		t.Fatalf("error = %v (%T), want *RetryExhaustedError", err, err)
	}
	// The 60s RetryAfterMillis floor outlives the 1s deadline: exactly
	// one attempt, no sleep.
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d attempts, want 1 (backoff exceeds deadline)", got)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	var healthy atomic.Bool
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if !healthy.Load() {
			panic(http.ErrAbortHandler) // transport-level failure
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(serveapi.HealthResponse{Format: serveapi.FormatV1, Status: "ok"})
	}))
	defer srv.Close()

	m := obs.NewMetrics()
	clock := time.Unix(0, 0)
	policy := RetryPolicy{MaxAttempts: 1, BreakerThreshold: 3, BreakerCooldown: time.Second}
	c := newTestClient(srv.URL, &clock, nil, WithRetryPolicy(policy), WithMetrics(m))
	ctx := context.Background()

	// Three consecutive transport failures open the breaker.
	for i := 0; i < 3; i++ {
		if _, err := c.Eval(ctx, serveapi.EvalRequest{}); err == nil {
			t.Fatal("expected transport failure")
		}
	}
	if got := m.Counter(obs.ClientBreakerOpened); got != 1 {
		t.Fatalf("ClientBreakerOpened = %d, want 1", got)
	}

	// While open, calls fail fast without touching the network.
	before := hits.Load()
	_, err := c.Eval(ctx, serveapi.EvalRequest{})
	if err == nil {
		t.Fatal("expected fast-fail while breaker open")
	}
	if hits.Load() != before {
		t.Fatal("open breaker let a request reach the server")
	}
	if got := m.Counter(obs.ClientBreakerFastFails); got != 1 {
		t.Errorf("ClientBreakerFastFails = %d, want 1", got)
	}

	// After the cooldown a single probe goes through; it fails, so the
	// breaker re-opens.
	clock = clock.Add(2 * time.Second)
	if _, err := c.Eval(ctx, serveapi.EvalRequest{}); err == nil {
		t.Fatal("expected probe failure")
	}
	if got := m.Counter(obs.ClientBreakerProbes); got != 1 {
		t.Errorf("ClientBreakerProbes = %d, want 1", got)
	}
	if got := m.Counter(obs.ClientBreakerOpened); got != 2 {
		t.Errorf("ClientBreakerOpened = %d, want 2 (probe failure re-opens)", got)
	}

	// Heal the server; after another cooldown the next probe succeeds
	// and closes the breaker.
	healthy.Store(true)
	clock = clock.Add(2 * time.Second)
	if _, err := c.Eval(ctx, serveapi.EvalRequest{}); err != nil {
		t.Fatalf("probe against healthy server: %v", err)
	}
	if got := m.Counter(obs.ClientBreakerClosed); got != 1 {
		t.Errorf("ClientBreakerClosed = %d, want 1", got)
	}
	if _, err := c.Eval(ctx, serveapi.EvalRequest{}); err != nil {
		t.Fatalf("call after breaker closed: %v", err)
	}
}

func TestBreakerRidesThroughOutage(t *testing.T) {
	// With retries enabled, a call arriving while the breaker is open
	// waits out the cooldown via fast-fail attempts and succeeds once
	// the endpoint heals — the self-healing path the chaos soak leans on.
	var healthy atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			panic(http.ErrAbortHandler)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(serveapi.HealthResponse{Format: serveapi.FormatV1, Status: "ok"})
	}))
	defer srv.Close()

	clock := time.Unix(0, 0)
	policy := RetryPolicy{MaxAttempts: 10, BreakerThreshold: 2, BreakerCooldown: 100 * time.Millisecond}
	c := newTestClient(srv.URL, &clock, nil, WithRetryPolicy(policy))
	// Trip the breaker, then heal the server: the fake sleep advances
	// the fake clock, so fast-fail backoffs walk past the cooldown and
	// the half-open probe lands on the healed server.
	healthy.Store(false)
	go func() { healthy.Store(true) }()
	if _, err := c.Eval(context.Background(), serveapi.EvalRequest{}); err != nil {
		// Racing the heal above can legitimately exhaust; accept both
		// but require the error to be typed when it happens.
		var rex *RetryExhaustedError
		if !errors.As(err, &rex) {
			t.Fatalf("error = %v (%T), want success or *RetryExhaustedError", err, err)
		}
	}
}

func TestDefaultTimeoutAndInjectableHTTPClient(t *testing.T) {
	c := New("http://127.0.0.1:1")
	if c.httpc.Timeout != DefaultRequestTimeout {
		t.Errorf("default http.Client timeout = %v, want %v", c.httpc.Timeout, DefaultRequestTimeout)
	}
	custom := &http.Client{Timeout: 5 * time.Second}
	c = New("http://127.0.0.1:1", WithHTTPClient(custom))
	if c.httpc != custom {
		t.Error("WithHTTPClient did not install the caller's http.Client")
	}
}

func TestDeadlineHeaderPropagation(t *testing.T) {
	var gotHeader atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotHeader.Store(r.Header.Get(serveapi.DeadlineHeader))
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(serveapi.HealthResponse{Format: serveapi.FormatV1, Status: "ok"})
	}))
	defer srv.Close()

	c := New(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Eval(ctx, serveapi.EvalRequest{}); err != nil {
		t.Fatalf("Eval: %v", err)
	}
	h, _ := gotHeader.Load().(string)
	if h == "" {
		t.Fatal("request with a context deadline carried no DeadlineHeader")
	}

	// Without a deadline the header is absent.
	if _, err := c.Eval(context.Background(), serveapi.EvalRequest{}); err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if h, _ := gotHeader.Load().(string); h != "" {
		t.Errorf("request without a deadline carried DeadlineHeader %q", h)
	}
}

func TestTransportErrorRetriesAndExhausts(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer srv.Close()

	m := obs.NewMetrics()
	clock := time.Unix(0, 0)
	c := newTestClient(srv.URL, &clock, nil,
		WithRetryPolicy(RetryPolicy{MaxAttempts: 3, BreakerThreshold: 0}), WithMetrics(m))
	_, err := c.Eval(context.Background(), serveapi.EvalRequest{})
	var rex *RetryExhaustedError
	if !errors.As(err, &rex) {
		t.Fatalf("error = %v (%T), want *RetryExhaustedError", err, err)
	}
	var terr *TransportError
	if !errors.As(err, &terr) {
		t.Fatalf("exhausted error does not unwrap to *TransportError: %v", err)
	}
	if len(rex.Attempts) != 3 {
		t.Errorf("trace has %d attempts, want 3", len(rex.Attempts))
	}
	if got := m.Counter(obs.ClientRetriesExhausted); got != 1 {
		t.Errorf("ClientRetriesExhausted = %d, want 1", got)
	}
}

func TestCallerCancellationIsNotRetried(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer srv.Close()
	defer close(release)

	c := New(srv.URL, WithRetryPolicy(DefaultRetryPolicy()))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err := c.Eval(ctx, serveapi.EvalRequest{})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	var rex *RetryExhaustedError
	if errors.As(err, &rex) {
		t.Fatalf("caller cancellation was retried: %v", err)
	}
}
