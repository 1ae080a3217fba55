// Package faultwire is a deterministic, seeded fault-injection middleware
// for the ftserved wire: it wraps the server's HTTP handler and perturbs
// requests and responses the way a hostile network or a sick process
// would — injected latency, typed error responses, connection resets
// mid-body, truncated and corrupted JSON — so the client's recovery story
// (retry, backoff, circuit breaking) can be exercised end to end without
// leaving the fault schedule to chance.
//
// # Determinism
//
// The injected-fault schedule is a pure function of (Spec, seed): the
// i-th intercepted request draws its decision from a splitmix64 stream
// reseeded with sim.ScenarioSeed(seed, i), exactly the per-scenario
// discipline the evaluation engines use. Two injectors built from the
// same spec and seed produce the same Decision for every index, whatever
// the arrival interleaving — TestScheduleDeterministic gates this. Under
// concurrency the mapping of requests to indices follows arrival order,
// so the multiset of injected faults over N requests is reproducible even
// when the per-request assignment is not.
//
// # Spec grammar
//
// A spec is a semicolon-separated list of clauses, each a fault kind with
// comma-separated key=value options:
//
//	latency:p=0.2,ms=40     delay the request 40ms before handling
//	error:p=0.1,kind=overloaded[,retry=25]
//	                        answer a typed wire error instead of handling
//	                        (kind one of overloaded, rate_limited,
//	                        draining, internal; retry = RetryAfterMillis)
//	reset:p=0.05            abort the connection mid-body (partial JSON,
//	                        then a hard close)
//	truncate:p=0.05         serve only the first half of the JSON body
//	corrupt:p=0.05          overwrite a body byte with 0x00 (never valid
//	                        JSON, so corruption is always detectable)
//	tenant=NAME             restrict injection to requests of this tenant
//
// Clauses are evaluated in spec order, first match wins, so the spec is
// also a priority list. Only POST /v1/ API requests are intercepted:
// health probes and metrics scrapes stay clean, matching the
// load-balancer contract of the server's /v1/healthz.
package faultwire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ftsched/internal/obs"
	"ftsched/internal/serveapi"
	"ftsched/internal/sim"
)

// FaultKind enumerates the wire faults the middleware can inject.
type FaultKind int

const (
	// FaultNone leaves the request untouched.
	FaultNone FaultKind = iota
	// FaultLatency delays the request before the handler sees it.
	FaultLatency
	// FaultError answers a typed serveapi error without invoking the
	// handler.
	FaultError
	// FaultReset writes a partial response body and aborts the
	// connection (the client observes an unexpected EOF mid-body).
	FaultReset
	// FaultTruncate serves only the first half of the response body with
	// a consistent Content-Length — valid HTTP, invalid JSON.
	FaultTruncate
	// FaultCorrupt overwrites one response-body byte with 0x00, which no
	// JSON document may contain, so corruption always fails decoding.
	FaultCorrupt
)

// String returns the spec-grammar name of the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultLatency:
		return "latency"
	case FaultError:
		return "error"
	case FaultReset:
		return "reset"
	case FaultTruncate:
		return "truncate"
	case FaultCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Clause is one parsed fault clause of a Spec.
type Clause struct {
	Kind FaultKind
	// Prob is the per-request injection probability in [0,1].
	Prob float64
	// Delay is the injected latency (FaultLatency).
	Delay time.Duration
	// ErrKind is the injected wire-error kind (FaultError); one of
	// serveapi.KindOverloaded, KindRateLimited, KindDraining,
	// KindInternal.
	ErrKind string
	// RetryAfterMillis is the retry hint carried by injected retryable
	// errors (FaultError; 0 for KindInternal).
	RetryAfterMillis int64
}

// Spec is a parsed -fault-spec: an ordered clause list plus an optional
// tenant filter.
type Spec struct {
	Clauses []Clause
	// Tenant restricts injection to requests of this tenant ("" = all;
	// requests without a tenant header belong to serveapi.DefaultTenant).
	Tenant string
}

// ParseError reports a -fault-spec string that failed parsing, carrying
// the offending clause so CLIs can point at it.
type ParseError struct {
	Clause string
	Reason string
}

// Error implements error.
func (e *ParseError) Error() string {
	if e.Clause == "" {
		return "faultwire: " + e.Reason
	}
	return fmt.Sprintf("faultwire: clause %q: %s", e.Clause, e.Reason)
}

// errKindCode maps an injectable error kind to its HTTP status.
func errKindCode(kind string) (int, bool) {
	switch kind {
	case serveapi.KindRateLimited:
		return http.StatusTooManyRequests, true
	case serveapi.KindOverloaded, serveapi.KindDraining:
		return http.StatusServiceUnavailable, true
	case serveapi.KindInternal:
		return http.StatusInternalServerError, true
	}
	return 0, false
}

// ParseSpec parses the -fault-spec grammar documented in the package
// comment. An empty string is a valid, empty spec (no injection).
func ParseSpec(spec string) (Spec, error) {
	var s Spec
	for _, raw := range strings.Split(spec, ";") {
		clause := strings.TrimSpace(raw)
		if clause == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(clause, "tenant="); ok {
			if rest == "" {
				return Spec{}, &ParseError{Clause: clause, Reason: "empty tenant name"}
			}
			s.Tenant = rest
			continue
		}
		name, opts, _ := strings.Cut(clause, ":")
		var c Clause
		switch name {
		case "latency":
			c = Clause{Kind: FaultLatency, Delay: 25 * time.Millisecond}
		case "error":
			c = Clause{Kind: FaultError, ErrKind: serveapi.KindOverloaded, RetryAfterMillis: 25}
		case "reset":
			c = Clause{Kind: FaultReset}
		case "truncate":
			c = Clause{Kind: FaultTruncate}
		case "corrupt":
			c = Clause{Kind: FaultCorrupt}
		default:
			return Spec{}, &ParseError{Clause: clause,
				Reason: "unknown fault kind (want latency, error, reset, truncate, corrupt or tenant=)"}
		}
		c.Prob = -1
		if opts != "" {
			for _, kv := range strings.Split(opts, ",") {
				key, val, ok := strings.Cut(kv, "=")
				if !ok {
					return Spec{}, &ParseError{Clause: clause, Reason: fmt.Sprintf("option %q is not key=value", kv)}
				}
				switch key {
				case "p":
					p, err := strconv.ParseFloat(val, 64)
					if err != nil || p < 0 || p > 1 {
						return Spec{}, &ParseError{Clause: clause, Reason: fmt.Sprintf("p=%s is not a probability in [0,1]", val)}
					}
					c.Prob = p
				case "ms":
					if c.Kind != FaultLatency {
						return Spec{}, &ParseError{Clause: clause, Reason: "ms= only applies to latency"}
					}
					ms, err := strconv.Atoi(val)
					if err != nil || ms <= 0 {
						return Spec{}, &ParseError{Clause: clause, Reason: fmt.Sprintf("ms=%s is not a positive integer", val)}
					}
					c.Delay = time.Duration(ms) * time.Millisecond
				case "kind":
					if c.Kind != FaultError {
						return Spec{}, &ParseError{Clause: clause, Reason: "kind= only applies to error"}
					}
					if _, ok := errKindCode(val); !ok {
						return Spec{}, &ParseError{Clause: clause,
							Reason: fmt.Sprintf("kind=%s is not injectable (want overloaded, rate_limited, draining or internal)", val)}
					}
					c.ErrKind = val
				case "retry":
					if c.Kind != FaultError {
						return Spec{}, &ParseError{Clause: clause, Reason: "retry= only applies to error"}
					}
					ms, err := strconv.Atoi(val)
					if err != nil || ms < 0 {
						return Spec{}, &ParseError{Clause: clause, Reason: fmt.Sprintf("retry=%s is not a non-negative integer", val)}
					}
					c.RetryAfterMillis = int64(ms)
				default:
					return Spec{}, &ParseError{Clause: clause, Reason: fmt.Sprintf("unknown option %q", key)}
				}
			}
		}
		if c.Prob < 0 {
			return Spec{}, &ParseError{Clause: clause, Reason: "missing p= probability"}
		}
		if c.Kind == FaultError && c.ErrKind == serveapi.KindInternal {
			c.RetryAfterMillis = 0
		}
		s.Clauses = append(s.Clauses, c)
	}
	return s, nil
}

// Decision is the injection verdict for one intercepted request. It is
// a comparable value so schedules can be diffed directly in tests.
type Decision struct {
	Kind FaultKind
	// Delay is the injected latency (FaultLatency).
	Delay time.Duration
	// Err is the injected wire error (FaultError; zero otherwise).
	Err serveapi.Error
}

// Injector applies a Spec to an http.Handler. Construct with New; an
// Injector is safe for concurrent use.
type Injector struct {
	spec Spec
	seed int64
	sink obs.Sink
	next atomic.Int64
	hits atomic.Int64
}

// New builds an injector for a parsed spec. The sink (nil = none)
// receives the Faultwire* obs counters.
func New(spec Spec, seed int64, sink obs.Sink) *Injector {
	return &Injector{spec: spec, seed: seed, sink: sink}
}

// Decision returns the deterministic injection verdict for the i-th
// intercepted request: the same (spec, seed, i) always yields the same
// decision, independent of any other index.
func (in *Injector) Decision(i int64) Decision {
	var rng sim.RNG
	rng.Reseed(sim.ScenarioSeed(in.seed, int(i)))
	for _, c := range in.spec.Clauses {
		if rng.Float64() >= c.Prob {
			continue
		}
		switch c.Kind {
		case FaultLatency:
			return Decision{Kind: FaultLatency, Delay: c.Delay}
		case FaultError:
			code, _ := errKindCode(c.ErrKind)
			return Decision{Kind: FaultError, Err: serveapi.Error{
				Code: code, Kind: c.ErrKind,
				Message:          "faultwire: injected " + c.ErrKind,
				RetryAfterMillis: c.RetryAfterMillis,
			}}
		default:
			return Decision{Kind: c.Kind}
		}
	}
	return Decision{}
}

// Injected reports the number of faults injected so far.
func (in *Injector) Injected() int64 { return in.hits.Load() }

// targets reports whether a request participates in fault injection:
// POST /v1/ API calls of the targeted tenant. Health probes and metrics
// scrapes (GETs) never do.
func (in *Injector) targets(r *http.Request) bool {
	if r.Method != http.MethodPost || !strings.HasPrefix(r.URL.Path, "/v1/") {
		return false
	}
	if in.spec.Tenant == "" {
		return true
	}
	tenant := r.Header.Get(serveapi.TenantHeader)
	if tenant == "" {
		tenant = serveapi.DefaultTenant
	}
	return tenant == in.spec.Tenant
}

func (in *Injector) count(kind obs.Counter) {
	in.hits.Add(1)
	if in.sink != nil {
		in.sink.Add(obs.FaultwireInjections, 1)
		in.sink.Add(kind, 1)
	}
}

// capture is a buffering http.ResponseWriter: body faults need the whole
// response before deciding which bytes survive.
type capture struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (c *capture) Header() http.Header { return c.header }

func (c *capture) WriteHeader(code int) {
	if c.code == 0 {
		c.code = code
	}
}

func (c *capture) Write(p []byte) (int, error) {
	c.WriteHeader(http.StatusOK)
	return c.body.Write(p)
}

// Middleware wraps next with the injector's fault schedule.
func (in *Injector) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !in.targets(r) {
			next.ServeHTTP(w, r)
			return
		}
		d := in.Decision(in.next.Add(1) - 1)
		switch d.Kind {
		case FaultNone:
			next.ServeHTTP(w, r)
		case FaultLatency:
			in.count(obs.FaultwireLatency)
			t := time.NewTimer(d.Delay)
			defer t.Stop()
			select {
			case <-r.Context().Done():
			case <-t.C:
			}
			next.ServeHTTP(w, r)
		case FaultError:
			in.count(obs.FaultwireErrors)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(d.Err.Code)
			_ = json.NewEncoder(w).Encode(serveapi.ErrorResponse{Format: serveapi.FormatV1, Err: d.Err})
		default:
			in.maul(w, r, next, d.Kind)
		}
	})
}

// maul runs the handler against a capture buffer and serves a damaged
// copy of its response.
func (in *Injector) maul(w http.ResponseWriter, r *http.Request, next http.Handler, kind FaultKind) {
	cap := &capture{header: make(http.Header)}
	next.ServeHTTP(cap, r)
	body := cap.body.Bytes()
	for k, vs := range cap.header {
		w.Header()[k] = vs
	}
	if len(body) < 2 {
		// Nothing worth damaging; pass the response through untouched
		// (the decision still consumed its schedule index).
		w.WriteHeader(cap.code)
		_, _ = w.Write(body)
		return
	}
	switch kind {
	case FaultTruncate:
		in.count(obs.FaultwireTruncates)
		half := body[:len(body)/2]
		// A consistent Content-Length makes the truncation invisible at
		// the transport layer: the client only catches it decoding JSON.
		w.Header().Set("Content-Length", strconv.Itoa(len(half)))
		w.WriteHeader(cap.code)
		_, _ = w.Write(half)
	case FaultCorrupt:
		in.count(obs.FaultwireCorrupts)
		body[len(body)/2] = 0x00
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(cap.code)
		_, _ = w.Write(body)
	case FaultReset:
		in.count(obs.FaultwireResets)
		// Promise the full body, deliver half, then abort the connection:
		// the client observes an unexpected EOF mid-body. ErrAbortHandler
		// is net/http's sanctioned way to kill a connection from a
		// handler.
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(cap.code)
		_, _ = w.Write(body[:len(body)/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
}
