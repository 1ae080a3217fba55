// Package serve is the ftserved service layer: a long-running,
// multi-tenant HTTP/JSON server that owns a bounded cache of compiled
// quasi-static trees and serves synthesis, Monte-Carlo evaluation,
// certification, chaos campaigns and per-cycle dispatch decisions over
// the versioned wire contract of internal/serveapi.
//
// # Request lifecycle
//
// Every request passes the same gate: drain check (a draining server
// rejects new work with a typed 503 KindDraining while accepted requests
// run to completion), tenant resolution (the X-FTSched-Tenant header),
// admission control (token-bucket rate limit → 429 KindRateLimited,
// in-flight cap → 503 KindOverloaded), then the endpoint. Rejections are
// always JSON bodies of serveapi.ErrorResponse — never dropped
// connections — so a fleet of embedded devices can branch on Kind.
//
// # Determinism
//
// The server adds no randomness of its own: evaluation, certification and
// chaos run the same deterministic engines the library exposes, with the
// same seed-derived scenario streams, so a response is bit-identical
// (after JSON round-trip) to the equivalent in-process call, for any
// server worker count and whether the tree came from the cache or was
// compiled for the request.
//
// # Hot reload
//
// POST /v1/reload re-synthesises a cached tree from its stored
// application and swaps the compiled artifact behind an atomic pointer.
// Requests load the artifact once at admission; in-flight cycles
// therefore finish on the tree they started with, and the first request
// admitted after the swap dispatches on the new one.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ftsched/internal/appio"
	"ftsched/internal/certify"
	"ftsched/internal/chaos"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
	"ftsched/internal/serveapi"
	"ftsched/internal/sim"
)

// Config parametrises a Server.
type Config struct {
	// CacheSize bounds the compiled-tree cache (0 = DefaultCacheSize).
	CacheSize int
	// Limits is the default admission policy applied to every tenant.
	Limits Limits
	// Metrics is the process-wide collector (nil = a fresh one). The
	// serve counters land both here and on the requesting tenant's own
	// collector.
	Metrics *obs.Metrics
	// MaxWorkers clamps per-request worker hints (0 = no clamp). On a
	// shared server this keeps one request from oversubscribing the host.
	MaxWorkers int
	// Overload governs graceful degradation under sustained admission
	// pressure (zero value = shedding disabled).
	Overload OverloadConfig
	// Now overrides the admission clock (tests); nil = time.Now.
	Now func() time.Time
}

// Server implements the ftsched-api/v1 service.
type Server struct {
	cfg     Config
	metrics *obs.Metrics
	cache   *Cache
	tenants *tenants
	shed    *shedder
	now     func() time.Time

	draining atomic.Bool
	wg       sync.WaitGroup
	mux      *http.ServeMux
}

// New builds a Server.
func New(cfg Config) *Server {
	m := cfg.Metrics
	if m == nil {
		m = obs.NewMetrics()
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	s := &Server{
		cfg:     cfg,
		metrics: m,
		cache:   NewCache(cfg.CacheSize, m),
		tenants: newTenants(cfg.Limits),
		shed:    newShedder(cfg.Overload, m),
		now:     now,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/synthesize", s.wrap("synthesize", s.synthesize))
	mux.HandleFunc("POST /v1/eval", s.wrap("eval", s.eval))
	mux.HandleFunc("POST /v1/certify", s.wrap("certify", s.certify))
	mux.HandleFunc("POST /v1/chaos", s.wrap("chaos", s.chaos))
	mux.HandleFunc("POST /v1/dispatch", s.wrap("dispatch", s.dispatch))
	mux.HandleFunc("POST /v1/reload", s.wrap("reload", s.reload))
	mux.HandleFunc("GET /v1/healthz", s.healthz)
	mux.HandleFunc("/v1/tenants/{tenant}/", s.tenantMetrics)
	s.mux = mux
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the process-wide collector (for obs.Serve).
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// Drain stops admitting new work and waits for every accepted request to
// complete (or ctx to expire). After Drain returns nil, zero accepted
// requests are still executing — the graceful-shutdown contract ftserved
// builds on.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// endpoint is one wire operation: decode and execute, returning the
// response value or a typed error.
type endpoint func(ctx context.Context, t *Tenant, body []byte) (any, *serveapi.Error)

// wrap is the request gate shared by every POST endpoint: drain check,
// overload shedding, admission control, bounded body read, execution,
// instrumentation.
func (s *Server) wrap(name string, fn endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Admission order matters for the drain contract: the WaitGroup
		// registration happens before the drain re-check, so Drain's
		// Wait can never miss a request that saw draining=false.
		s.wg.Add(1)
		defer s.wg.Done()
		tenant := s.tenants.get(r.Header.Get(serveapi.TenantHeader))
		if s.draining.Load() {
			writeError(w, &serveapi.Error{
				Code: http.StatusServiceUnavailable, Kind: serveapi.KindDraining,
				Message: "server is draining", Tenant: tenant.name,
			})
			return
		}
		// Shedding sits before admission so shed responses neither
		// consume tenant tokens nor count as rejections — the window
		// only measures genuine admission pressure, and therefore
		// drains (and the server recovers) once clients back off.
		if min, shed := shedClass[name]; shed && s.shed.level(s.now()) >= min {
			s.metrics.Add(obs.ServeShed, 1)
			writeError(w, &serveapi.Error{
				Code: http.StatusServiceUnavailable, Kind: serveapi.KindOverloaded,
				Message:          "shedding " + name + " under overload",
				Tenant:           tenant.name,
				RetryAfterMillis: s.shed.cfg.RetryAfterMillis,
			})
			return
		}
		done, werr := tenant.admit(s.now())
		if werr != nil {
			s.shed.record(s.now())
			writeError(w, werr)
			return
		}
		defer done()

		ctx := r.Context()
		if ms := r.Header.Get(serveapi.DeadlineHeader); ms != "" {
			// The caller shipped its remaining budget: cancel engine
			// work server-side once the client has given up on it.
			if v, err := strconv.ParseInt(ms, 10, 64); err == nil && v > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(v)*time.Millisecond)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}

		start := s.now()
		body, err := io.ReadAll(io.LimitReader(r.Body, serveapi.MaxRequestBytes+1))
		if err != nil {
			writeError(w, &serveapi.Error{
				Code: http.StatusBadRequest, Kind: serveapi.KindBadRequest,
				Message: "reading request body: " + err.Error(), Tenant: tenant.name,
			})
			return
		}
		if len(body) > serveapi.MaxRequestBytes {
			writeError(w, &serveapi.Error{
				Code: http.StatusRequestEntityTooLarge, Kind: serveapi.KindBadRequest,
				Message: fmt.Sprintf("request body exceeds %d bytes", serveapi.MaxRequestBytes),
				Tenant:  tenant.name,
			})
			return
		}

		resp, werr := fn(r.Context(), tenant, body)
		nanos := s.now().Sub(start).Nanoseconds()
		for _, sink := range []obs.Sink{s.metrics, tenant.metrics} {
			sink.Add(obs.ServeRequests, 1)
			sink.Observe(obs.ServeRequestNanos, nanos)
		}
		if werr != nil {
			if werr.Tenant == "" {
				werr.Tenant = tenant.name
			}
			writeError(w, werr)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

func writeError(w http.ResponseWriter, werr *serveapi.Error) {
	writeJSON(w, werr.Code, serveapi.ErrorResponse{Format: serveapi.FormatV1, Err: *werr})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the status line is already out; nothing to do on error
}

// clampWorkers applies the server-wide worker bound to a request hint.
// Results are worker-invariant across the whole engine stack, so the
// clamp changes latency, never bytes.
func (s *Server) clampWorkers(n int) int {
	if s.cfg.MaxWorkers > 0 && (n == 0 || n > s.cfg.MaxWorkers) {
		return s.cfg.MaxWorkers
	}
	return n
}

func (s *Server) synthesize(ctx context.Context, t *Tenant, body []byte) (any, *serveapi.Error) {
	req, werr := serveapi.DecodeSynthesizeRequest(body)
	if werr != nil {
		return nil, werr
	}
	start := s.now()
	e, st, hit, werr := s.cache.Resolve(ctx, serveapi.TreeRef{App: req.App, Options: &req.Options})
	if werr != nil {
		return nil, werr
	}
	resp := &serveapi.SynthesizeResponse{
		Format:     serveapi.FormatV1,
		TreeKey:    e.key,
		CacheHit:   hit,
		Nodes:      len(st.tree.Nodes),
		Arcs:       len(st.tree.Arcs),
		Generation: st.generation,
	}
	if !hit {
		resp.CompileMillis = float64(s.now().Sub(start).Nanoseconds()) / 1e6
	}
	if req.IncludeTree {
		var buf strings.Builder
		if err := appio.EncodeTreeCompact(&buf, st.tree); err != nil {
			return nil, serveapi.WireError(err)
		}
		resp.Tree = json.RawMessage(buf.String())
	}
	return resp, nil
}

func (s *Server) eval(ctx context.Context, t *Tenant, body []byte) (any, *serveapi.Error) {
	req, cfg, werr := serveapi.DecodeEvalRequest(body)
	if werr != nil {
		return nil, werr
	}
	e, st, hit, werr := s.cache.Resolve(ctx, req.TreeRef)
	if werr != nil {
		return nil, werr
	}
	cfg.Workers = s.clampWorkers(cfg.Workers)
	cfg.Dispatcher = st.disp
	cfg.Sink = t.metrics
	stats, err := sim.MonteCarloContext(ctx, st.tree, cfg)
	if err != nil {
		return nil, serveapi.WireError(err)
	}
	return &serveapi.EvalResponse{
		Format: serveapi.FormatV1, TreeKey: e.key, CacheHit: hit,
		Stats: serveapi.StatsJSON(stats),
	}, nil
}

func (s *Server) certify(ctx context.Context, t *Tenant, body []byte) (any, *serveapi.Error) {
	req, cfg, werr := serveapi.DecodeCertifyRequest(body)
	if werr != nil {
		return nil, werr
	}
	e, st, hit, werr := s.cache.Resolve(ctx, req.TreeRef)
	if werr != nil {
		return nil, werr
	}
	cfg.Workers = s.clampWorkers(cfg.Workers)
	cfg.Sink = t.metrics
	report, err := certify.CertifyContext(ctx, st.tree, cfg)
	resp := &serveapi.CertifyResponse{
		Format: serveapi.FormatV1, TreeKey: e.key, CacheHit: hit,
		Certified: err == nil,
		Report:    serveapi.ReportJSON(report),
	}
	if err != nil {
		ceErr, ok := asCounterexample(err)
		if !ok {
			return nil, serveapi.WireError(err)
		}
		ce := ceErr.Counterexample
		resp.Counterexample = appio.NewCounterexample(st.tree.App, ce.Scenario, ce.Proc, ce.Completion, ce.Path)
	}
	return resp, nil
}

func asCounterexample(err error) (*certify.CounterexampleError, bool) {
	var ceErr *certify.CounterexampleError
	ok := errors.As(err, &ceErr)
	return ceErr, ok
}

func (s *Server) chaos(ctx context.Context, t *Tenant, body []byte) (any, *serveapi.Error) {
	req, cfg, werr := serveapi.DecodeChaosRequest(body)
	if werr != nil {
		return nil, werr
	}
	e, st, hit, werr := s.cache.Resolve(ctx, req.TreeRef)
	if werr != nil {
		return nil, werr
	}
	cfg.Workers = s.clampWorkers(cfg.Workers)
	cfg.Sink = t.metrics
	report, err := chaos.RunContext(ctx, st.tree, cfg)
	if err != nil {
		return nil, serveapi.WireError(err)
	}
	if !req.IncludeRecords {
		report.Records = nil
	}
	return &serveapi.ChaosResponse{
		Format: serveapi.FormatV1, TreeKey: e.key, CacheHit: hit, Report: report,
	}, nil
}

func (s *Server) dispatch(ctx context.Context, t *Tenant, body []byte) (any, *serveapi.Error) {
	req, werr := serveapi.DecodeDispatchRequest(body)
	if werr != nil {
		return nil, werr
	}
	e, st, hit, werr := s.cache.Resolve(ctx, req.TreeRef)
	if werr != nil {
		return nil, werr
	}
	app := st.tree.App

	// The served tree's guarantees only cover in-model scenarios; every
	// cycle is validated against the application before any dispatch, so
	// a batch is all-or-nothing and a rejection names the cycle.
	scenarios := make([]runtime.Scenario, len(req.Cycles))
	for i, c := range req.Cycles {
		scenarios[i] = c.Scenario()
		if err := scenarios[i].Validate(app); err != nil {
			return nil, &serveapi.Error{
				Code: http.StatusBadRequest, Kind: serveapi.KindBadRequest,
				Message: fmt.Sprintf("cycle %d is out of model: %v", i, err),
			}
		}
	}

	// Batches shard over the same block driver Monte-Carlo evaluation
	// uses: workers claim whole 256-cycle blocks with reused scratch,
	// and results land positionally, so the response is independent of
	// the worker count.
	results := make([]serveapi.CycleResultJSON, len(scenarios))
	workers := s.clampWorkers(req.Workers)
	err := sim.RunBlocks(ctx, len(scenarios), workers, func(int) func(block, lo, hi int) error {
		var res runtime.Result
		return func(_, lo, hi int) error {
			for i := lo; i < hi; i++ {
				if err := st.disp.RunInto(&res, scenarios[i]); err != nil {
					return fmt.Errorf("cycle %d: %w", i, err)
				}
				results[i] = serveapi.ResultJSON(&res)
			}
			return nil
		}
	})
	if err != nil {
		return nil, serveapi.WireError(err)
	}
	for _, sink := range []obs.Sink{s.metrics, t.metrics} {
		sink.Observe(obs.ServeBatchCycles, int64(len(scenarios)))
	}
	return &serveapi.DispatchResponse{
		Format: serveapi.FormatV1, TreeKey: e.key, CacheHit: hit, Results: results,
	}, nil
}

func (s *Server) reload(ctx context.Context, t *Tenant, body []byte) (any, *serveapi.Error) {
	req, werr := serveapi.DecodeReloadRequest(body)
	if werr != nil {
		return nil, werr
	}
	st, werr := s.cache.Reload(ctx, req.TreeKey, req.Trim)
	if werr != nil {
		return nil, werr
	}
	return &serveapi.ReloadResponse{
		Format:      serveapi.FormatV1,
		TreeKey:     req.TreeKey,
		Nodes:       len(st.tree.Nodes),
		Arcs:        len(st.tree.Arcs),
		ArcsTrimmed: st.arcsTrimmed,
		Generation:  st.generation,
	}, nil
}

// healthz is served outside the admission gate: load balancers and drain
// watchers must see the server even when every tenant is saturated. The
// Status field walks the ok → degraded → draining state machine:
// degraded while the overload shedder is active (Shedding lists the
// endpoints currently refused), draining once Drain has begun
// (terminal — a draining server never reports degraded recovery).
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	level := s.shed.level(s.now())
	status := healthStatus(level)
	if s.draining.Load() {
		status = HealthDraining
	}
	writeJSON(w, http.StatusOK, serveapi.HealthResponse{
		Format:   serveapi.FormatV1,
		Status:   status,
		Draining: s.draining.Load(),
		Shedding: shedding(level),
		Trees:    s.cache.Len(),
		Tenants:  s.tenants.count(),
		InFlight: s.tenants.totalInFlight(),
	})
}

// tenantMetrics serves one tenant's obs.Handler (Prometheus /metrics,
// expvar, pprof) under /v1/tenants/{tenant}/. Unknown tenants 404 with a
// typed body; tenants exist once they have sent a request.
func (s *Server) tenantMetrics(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	t := s.tenants.lookup(name)
	if t == nil {
		writeError(w, &serveapi.Error{
			Code: http.StatusNotFound, Kind: serveapi.KindBadRequest,
			Message: fmt.Sprintf("unknown tenant %q", name), Tenant: name,
		})
		return
	}
	prefix := "/v1/tenants/" + name
	http.StripPrefix(prefix, obs.Handler(t.metrics)).ServeHTTP(w, r)
}
