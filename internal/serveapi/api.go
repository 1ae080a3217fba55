package serveapi

import (
	"encoding/json"
	"fmt"

	"ftsched/internal/appio"
	"ftsched/internal/certify"
	"ftsched/internal/chaos"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/sim"
)

// FormatV1 tags every request and response of the v1 wire contract.
const FormatV1 = "ftsched-api/v1"

// TenantHeader is the HTTP header naming the tenant a request is
// accounted against; absent or empty means DefaultTenant.
const TenantHeader = "X-FTSched-Tenant"

// DefaultTenant is the tenant requests without a TenantHeader land in.
const DefaultTenant = "default"

// DeadlineHeader is the HTTP header carrying the caller's remaining
// per-request budget in milliseconds. The server maps it onto the
// request context so engine work the caller will never see is canceled
// server-side instead of running to completion.
const DeadlineHeader = "X-FTSched-Deadline-Millis"

// Error kinds. Every non-2xx ftserved response body is an ErrorResponse
// whose Error carries one of these kinds — clients branch on Kind, never
// on message text.
const (
	// KindBadRequest: the body is not a well-formed request (broken JSON,
	// missing required fields, mis-sized scenario arrays).
	KindBadRequest = "bad_request"
	// KindUnknownFormat: the "format" field is missing or not FormatV1.
	KindUnknownFormat = "unknown_format"
	// KindInvalidConfig: a config failed the library's Validate; Field
	// names the offending config field.
	KindInvalidConfig = "invalid_config"
	// KindInvalidApp: the embedded application failed appio decoding or
	// model validation.
	KindInvalidApp = "invalid_application"
	// KindUnknownTree: the referenced tree_key is not (or no longer) in
	// the compiled-tree cache and the request embeds no application to
	// recompile it from.
	KindUnknownTree = "unknown_tree"
	// KindUnschedulable: synthesis failed — no schedule guarantees the
	// hard deadlines under k faults.
	KindUnschedulable = "unschedulable"
	// KindRateLimited: the tenant's token bucket is empty (HTTP 429);
	// RetryAfterMillis says when a token will be available.
	KindRateLimited = "rate_limited"
	// KindOverloaded: the tenant's in-flight cap is reached (HTTP 503).
	KindOverloaded = "overloaded"
	// KindDraining: the server is shutting down and admits no new work
	// (HTTP 503); in-flight requests still complete.
	KindDraining = "draining"
	// KindInternal: an unexpected server-side failure (HTTP 500).
	KindInternal = "internal"
)

// AllKinds lists every error kind of the taxonomy, in declaration order.
// A lockstep test pins it against the Kind* constants so additions to
// either are caught, and the client's retryable/non-retryable
// classification is table-tested over exactly this list.
func AllKinds() []string {
	return []string{
		KindBadRequest,
		KindUnknownFormat,
		KindInvalidConfig,
		KindInvalidApp,
		KindUnknownTree,
		KindUnschedulable,
		KindRateLimited,
		KindOverloaded,
		KindDraining,
		KindInternal,
	}
}

// Error is the typed wire error: admission-control rejections, decode
// failures and evaluation verdicts all surface as JSON bodies of this
// shape, never as bare status codes or dropped connections.
type Error struct {
	// Code is the HTTP status the error was (or should be) served with.
	Code int `json:"code"`
	// Kind is the machine-readable error class (Kind* constants).
	Kind string `json:"kind"`
	// Message is the human-readable detail.
	Message string `json:"message"`
	// Field names the offending config field for KindInvalidConfig.
	Field string `json:"field,omitempty"`
	// Tenant is the tenant the admission decision applied to.
	Tenant string `json:"tenant,omitempty"`
	// RetryAfterMillis hints when a rate-limited tenant should retry.
	RetryAfterMillis int64 `json:"retry_after_ms,omitempty"`
}

// Error implements error.
func (e *Error) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("ftsched-api: %s (%s, field %s): %s", e.Kind, httpStatusText(e.Code), e.Field, e.Message)
	}
	return fmt.Sprintf("ftsched-api: %s (%s): %s", e.Kind, httpStatusText(e.Code), e.Message)
}

// httpStatusText avoids importing net/http for one string table.
func httpStatusText(code int) string { return fmt.Sprintf("http %d", code) }

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Format string `json:"format"`
	Err    Error  `json:"error"`
}

// The former mirror names of four library types, kept only because the
// perfbench module spells them; the library types are the wire types (see
// the package documentation).
type (
	FTQSOptionsJSON = core.FTQSOptions
	MCConfigJSON    = sim.MCConfig
	MCStatsJSON     = sim.MCStats
	StatsJSON       = sim.MCStats
)

// TreeRef addresses the compiled tree a request operates on: a tree_key
// returned by a previous synthesis, or an embedded application plus
// options for on-the-fly (cache-filling) compilation. When both are
// present the key must match the app/options pair's derived key.
type TreeRef struct {
	// TreeKey is the cache key of a previously synthesised tree.
	TreeKey string `json:"tree_key,omitempty"`
	// App is the application as appio JSON (the ftgen/ftsched file
	// format), for requests that compile on the fly.
	App json.RawMessage `json:"app,omitempty"`
	// Options tunes the synthesis when App is given. Workers is accepted
	// but excluded from the cache key: the synthesised tree is
	// bit-identical for every worker count, so it is a server-side
	// execution hint, not part of the tree's identity.
	Options *core.FTQSOptions `json:"options,omitempty"`
}

// SynthesizeRequest asks the server to synthesise (or fetch from cache)
// the quasi-static tree for an application.
type SynthesizeRequest struct {
	Format  string           `json:"format"`
	App     json.RawMessage  `json:"app"`
	Options core.FTQSOptions `json:"options"`
	// IncludeTree asks for the compact tree encoding in the response, so
	// a client can also dispatch locally from the served artifact.
	IncludeTree bool `json:"include_tree,omitempty"`
}

// SynthesizeResponse reports the cached or freshly compiled tree.
type SynthesizeResponse struct {
	Format string `json:"format"`
	// TreeKey identifies the compiled tree for subsequent eval, certify,
	// dispatch and reload requests. It is derived from the canonical
	// application encoding (which embeds k and the platform) plus the
	// normalised synthesis options, so identical inputs always map to the
	// same entry.
	TreeKey string `json:"tree_key"`
	// CacheHit reports whether the tree was already compiled.
	CacheHit bool `json:"cache_hit"`
	// Nodes and Arcs describe the tree; Generation counts hot reloads of
	// this entry (0 for a first compilation).
	Nodes      int `json:"nodes"`
	Arcs       int `json:"arcs"`
	Generation int `json:"generation"`
	// CompileMillis is the synthesis + dispatcher compile time of a miss
	// (0 on a hit).
	CompileMillis float64 `json:"compile_ms"`
	// Tree is the compact tree encoding when IncludeTree was set.
	Tree json.RawMessage `json:"tree,omitempty"`
}

// EvalRequest runs a Monte-Carlo evaluation against a compiled tree.
// Config.Workers is a server-side execution hint; results are
// bit-identical for any value (the engine's worker-invariance contract),
// so a server is free to clamp it.
type EvalRequest struct {
	Format string `json:"format"`
	TreeRef
	Config sim.MCConfig `json:"config"`
}

// EvalResponse carries the evaluation statistics.
type EvalResponse struct {
	Format   string      `json:"format"`
	TreeKey  string      `json:"tree_key"`
	CacheHit bool        `json:"cache_hit"`
	Stats    sim.MCStats `json:"stats"`
}

// CertifyRequest certifies a compiled tree against the fault bound.
type CertifyRequest struct {
	Format string `json:"format"`
	TreeRef
	Config certify.Config `json:"config"`
}

// CertifyResponse carries the certification verdict. Certified false comes
// with the replayable counterexample (ftsim -replay reads it back) and is
// served as HTTP 200: a completed certification that found a violation is
// a result, not a request failure.
type CertifyResponse struct {
	Format         string                `json:"format"`
	TreeKey        string                `json:"tree_key"`
	CacheHit       bool                  `json:"cache_hit"`
	Certified      bool                  `json:"certified"`
	Report         certify.Report        `json:"report"`
	Counterexample *appio.Counterexample `json:"counterexample,omitempty"`
}

// CycleJSON is one operation cycle of a batch dispatch request: the
// observed (or simulated) execution durations, positional by ProcessID,
// and the per-process fault counts. Scenarios must be in-model
// (durations within [BCET, WCET], fault total within k); out-of-model
// cycles are rejected with KindBadRequest — the served tree's guarantees
// do not cover them.
type CycleJSON struct {
	Durations []model.Time `json:"durations"`
	FaultsAt  []int        `json:"faults_at,omitempty"`
}

// DispatchRequest executes a batch of cycles through the compiled
// dispatcher — the per-cycle decision service. Batching many cycles per
// request amortises the wire cost over the ~1µs in-process dispatch cost;
// the server shards large batches over the PR 6 block driver.
type DispatchRequest struct {
	Format string `json:"format"`
	TreeRef
	Cycles []CycleJSON `json:"cycles"`
	// Workers is a server-side execution hint (results are positional and
	// independent of it).
	Workers int `json:"workers,omitempty"`
}

// CycleResultJSON is the dispatch outcome of one cycle, positionally
// matching DispatchRequest.Cycles.
type CycleResultJSON struct {
	Utility        float64    `json:"utility"`
	Makespan       model.Time `json:"makespan"`
	FinalNode      int        `json:"final_node"`
	Switches       int        `json:"switches"`
	Recoveries     int        `json:"recoveries"`
	FaultsConsumed int        `json:"faults_consumed"`
	HardViolations []int      `json:"hard_violations,omitempty"`
	Energy         float64    `json:"energy"`
}

// DispatchResponse carries the per-cycle outcomes.
type DispatchResponse struct {
	Format   string            `json:"format"`
	TreeKey  string            `json:"tree_key"`
	CacheHit bool              `json:"cache_hit"`
	Results  []CycleResultJSON `json:"results"`
}

// ChaosConfigJSON mirrors chaos.Config on the wire (Sink has no wire
// form). Policy is the DegradePolicy name ("strict", "shed-soft",
// "best-effort"); empty selects "shed-soft" — the containment mode the
// chaos contract scores are defined for.
type ChaosConfigJSON struct {
	Cycles         int     `json:"cycles"`
	Seed           int64   `json:"seed,omitempty"`
	Workers        int     `json:"workers,omitempty"`
	Policy         string  `json:"policy,omitempty"`
	Clamp          bool    `json:"clamp,omitempty"`
	BaseFaults     int     `json:"base_faults,omitempty"`
	OverrunProb    float64 `json:"overrun_prob,omitempty"`
	OverrunFactor  float64 `json:"overrun_factor,omitempty"`
	StuckProb      float64 `json:"stuck_prob,omitempty"`
	RegressionProb float64 `json:"regression_prob,omitempty"`
	BurstProb      float64 `json:"burst_prob,omitempty"`
	ExtraFaults    int     `json:"extra_faults,omitempty"`
	Correlated     bool    `json:"correlated,omitempty"`
	SoftOnly       bool    `json:"soft_only,omitempty"`
}

// ChaosRequest runs a chaos campaign against a compiled tree.
type ChaosRequest struct {
	Format string `json:"format"`
	TreeRef
	Config ChaosConfigJSON `json:"config"`
	// IncludeRecords keeps the per-cycle records in the response; without
	// it only the aggregate counters are returned (records for a large
	// campaign dwarf the rest of the body).
	IncludeRecords bool `json:"include_records,omitempty"`
}

// ChaosResponse carries the campaign report. Contract findings (breaches,
// panics, misses) are scores on the report, not request failures — like a
// failed certification, a completed campaign is served as HTTP 200.
type ChaosResponse struct {
	Format   string        `json:"format"`
	TreeKey  string        `json:"tree_key"`
	CacheHit bool          `json:"cache_hit"`
	Report   *chaos.Report `json:"report"`
}

// TrimJSON asks a reload to trim the freshly recompiled tree
// (simulation-based arc removal) before the swap.
type TrimJSON struct {
	Scenarios int   `json:"scenarios"`
	Seed      int64 `json:"seed,omitempty"`
}

// ReloadRequest hot-recompiles the tree behind tree_key — fresh synthesis
// from the stored application and options, optionally trimmed — and swaps
// it in atomically. In-flight cycles finish on the tree they started
// with; requests admitted after the swap dispatch on the new tree.
type ReloadRequest struct {
	Format  string    `json:"format"`
	TreeKey string    `json:"tree_key"`
	Trim    *TrimJSON `json:"trim,omitempty"`
}

// ReloadResponse reports the swapped-in tree.
type ReloadResponse struct {
	Format  string `json:"format"`
	TreeKey string `json:"tree_key"`
	Nodes   int    `json:"nodes"`
	Arcs    int    `json:"arcs"`
	// ArcsTrimmed is the number of switch arcs trimming removed (0
	// without Trim).
	ArcsTrimmed int `json:"arcs_trimmed"`
	// Generation counts reloads of this entry since first compilation.
	Generation int `json:"generation"`
}

// HealthResponse is the body of GET /v1/healthz. Status walks the
// ok → degraded → draining state machine: "degraded" while the overload
// shedder refuses the endpoints listed in Shedding, "draining" once
// shutdown has begun.
type HealthResponse struct {
	Format   string `json:"format"`
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	// Shedding lists the endpoints currently shed under overload
	// (sorted; empty when Status is "ok" or "draining").
	Shedding []string `json:"shedding,omitempty"`
	Trees    int      `json:"trees"`
	Tenants  int      `json:"tenants"`
	InFlight int64    `json:"in_flight"`
}
