package obs

// Counter identifies one monotonic event counter. The enumeration is
// closed so emitters pay an array index per event and exporters can render
// the complete metric set without registration.
type Counter int

const (
	// FTQSNodesExpanded counts tree nodes whose candidate children were
	// generated and attached during FTQS synthesis.
	FTQSNodesExpanded Counter = iota
	// FTQSMemoHits and FTQSMemoMisses count suffix-synthesis memoisation
	// cache lookups (internal/core.suffixMemo).
	FTQSMemoHits
	FTQSMemoMisses
	// FTQSCandidatesKept counts candidate sub-schedules that survived
	// interval partitioning and were offered to the coordinator.
	FTQSCandidatesKept
	// FTQSCandidatesRejected counts candidate sub-schedules discarded as
	// infeasible, identical to the parent's continuation, or below the
	// minimum utility gain.
	FTQSCandidatesRejected
	// FTQSPrefetchHits and FTQSPrefetchMisses are retired: FTQS no longer
	// speculates on the next nodes to expand, so nothing emits them and
	// they always read 0. The declarations stay so that existing readers
	// (and the exported metric names) keep working.
	FTQSPrefetchHits
	FTQSPrefetchMisses
	// FTQSWorkerBusyNanos accumulates nanoseconds spent inside candidate
	// generation across all synthesis workers; against wall-clock time it
	// yields worker utilisation.
	FTQSWorkerBusyNanos

	// DispatchCycles counts operation cycles executed by a Dispatcher.
	DispatchCycles
	// DispatchSwitches counts quasi-static schedule switches taken.
	DispatchSwitches
	// DispatchFaultsAbsorbed counts re-executions performed (faults
	// absorbed by recovery slack); DispatchFaultsAbandoned counts
	// processes abandoned because their recovery budget was exhausted.
	DispatchFaultsAbsorbed
	DispatchFaultsAbandoned
	// DispatchGuardFallbacks counts mid-cycle switches whose target was
	// unusable (out-of-range node, missing schedule); the dispatcher fell
	// back to the root f-schedule (or stayed put) instead of panicking.
	// Non-zero values indicate a corrupted dispatch table.
	DispatchGuardFallbacks

	// MCRuns counts Monte-Carlo evaluations; MCScenarios counts simulated
	// scenarios across all evaluations.
	MCRuns
	MCScenarios

	// TrimArcsEvaluated counts switch arcs whose removal was priced by
	// paired replay; TrimArcsRemoved counts arcs actually removed;
	// TrimReplays counts scenario replays performed while pricing.
	TrimArcsEvaluated
	TrimArcsRemoved
	TrimReplays

	// CertifyScenarios counts adversarial scenarios the certification
	// engine explored (each resumed from a recorded prefix where it
	// matches); CertifyPatterns counts fault
	// patterns certified; CertifyPatternsPruned counts fault patterns
	// skipped because bitset canonicalisation proved them equivalent to an
	// already-enumerated pattern; CertifyBisectionRuns counts the probe
	// executions spent locating guard-boundary execution times.
	CertifyScenarios
	CertifyPatterns
	CertifyPatternsPruned
	CertifyBisectionRuns

	// EnvelopeOverruns counts executions whose sampled duration exceeded
	// the process WCET — the dispatcher left the paper's fault model.
	EnvelopeOverruns
	// EnvelopeExtraFaults counts transient faults consumed beyond the
	// application bound k (the k+1-th and later faults of a cycle).
	EnvelopeExtraFaults
	// EnvelopeTimeRegressions counts executions whose reported duration
	// was negative — observed time ran backwards mid-cycle.
	EnvelopeTimeRegressions
	// EnvelopeSheds counts cycles in which PolicyShedSoft dropped the
	// remaining soft work and fell back to the emergency hard-only suffix.
	EnvelopeSheds
	// EnvelopeBudgetExhausted counts BudgetExhausted violation events: a
	// process abandoned after its recovery budget ran out. Unlike
	// DispatchFaultsAbandoned it excludes soft processes a shedding
	// envelope abandoned early (their budget was not exhausted).
	EnvelopeBudgetExhausted

	// ChaosCycles counts operation cycles executed by a chaos campaign;
	// ChaosInjections counts cycles the injector perturbed out of model.
	ChaosCycles
	ChaosInjections

	// DispatchEnergy accumulates the total platform energy (active + idle,
	// rounded to integer energy units) consumed across dispatched cycles.
	DispatchEnergy

	// ServeRequests counts API requests admitted by ftserved (all
	// endpoints, after admission control); ServeRejectedRate counts
	// requests rejected by a tenant's token bucket (HTTP 429) and
	// ServeRejectedLoad requests rejected by an in-flight cap or because
	// the server was draining (HTTP 503). Admitted + rejected = offered
	// load.
	ServeRequests
	ServeRejectedRate
	ServeRejectedLoad
	// ServeCacheHits and ServeCacheMisses count compiled-tree cache
	// lookups by outcome; a miss implies a synthesis + dispatcher
	// compilation on the request path. ServeReloads counts hot
	// recompilations swapped in behind the atomic tree pointer.
	ServeCacheHits
	ServeCacheMisses
	ServeReloads
	// ServeShed counts requests to expensive endpoints (certify, chaos)
	// rejected because the server was degraded by sustained overload;
	// ServeDegraded counts transitions of the health state machine into
	// the degraded state.
	ServeShed
	ServeDegraded

	// FaultwireInjections counts wire faults injected by the faultwire
	// middleware (all kinds); the per-kind counters below sum to it.
	FaultwireInjections
	FaultwireLatency
	FaultwireErrors
	FaultwireResets
	FaultwireTruncates
	FaultwireCorrupts

	// ClientRequests counts logical API calls issued by the retrying
	// client; ClientAttempts counts HTTP attempts (>= requests);
	// ClientRetries counts re-attempts after a retryable failure;
	// ClientRetriesExhausted counts calls that failed with a
	// RetryExhaustedError after the attempt budget ran out.
	ClientRequests
	ClientAttempts
	ClientRetries
	ClientRetriesExhausted
	// ClientBreakerOpened / ClientBreakerClosed count circuit-breaker
	// state transitions; ClientBreakerProbes counts half-open probe
	// attempts; ClientBreakerFastFails counts attempts short-circuited
	// while the breaker was open.
	ClientBreakerOpened
	ClientBreakerClosed
	ClientBreakerProbes
	ClientBreakerFastFails

	numCounters
)

// counterNames are the Prometheus/expvar metric names, indexed by Counter.
var counterNames = [numCounters]string{
	FTQSNodesExpanded:       "ftsched_ftqs_nodes_expanded_total",
	FTQSMemoHits:            "ftsched_ftqs_memo_hits_total",
	FTQSMemoMisses:          "ftsched_ftqs_memo_misses_total",
	FTQSCandidatesKept:      "ftsched_ftqs_candidates_kept_total",
	FTQSCandidatesRejected:  "ftsched_ftqs_candidates_rejected_total",
	FTQSPrefetchHits:        "ftsched_ftqs_prefetch_hits_total",
	FTQSPrefetchMisses:      "ftsched_ftqs_prefetch_misses_total",
	FTQSWorkerBusyNanos:     "ftsched_ftqs_worker_busy_nanoseconds_total",
	DispatchCycles:          "ftsched_dispatch_cycles_total",
	DispatchSwitches:        "ftsched_dispatch_switches_total",
	DispatchFaultsAbsorbed:  "ftsched_dispatch_faults_absorbed_total",
	DispatchFaultsAbandoned: "ftsched_dispatch_faults_abandoned_total",
	DispatchGuardFallbacks:  "ftsched_dispatch_guard_fallbacks_total",
	MCRuns:                  "ftsched_montecarlo_runs_total",
	MCScenarios:             "ftsched_montecarlo_scenarios_total",
	TrimArcsEvaluated:       "ftsched_trim_arcs_evaluated_total",
	TrimArcsRemoved:         "ftsched_trim_arcs_removed_total",
	TrimReplays:             "ftsched_trim_replays_total",
	CertifyScenarios:        "ftsched_certify_scenarios_total",
	CertifyPatterns:         "ftsched_certify_patterns_total",
	CertifyPatternsPruned:   "ftsched_certify_patterns_pruned_total",
	CertifyBisectionRuns:    "ftsched_certify_bisection_runs_total",
	EnvelopeOverruns:        "ftsched_envelope_overruns_total",
	EnvelopeExtraFaults:     "ftsched_envelope_extra_faults_total",
	EnvelopeTimeRegressions: "ftsched_envelope_time_regressions_total",
	EnvelopeSheds:           "ftsched_envelope_sheds_total",
	EnvelopeBudgetExhausted: "ftsched_envelope_budget_exhausted_total",
	ChaosCycles:             "ftsched_chaos_cycles_total",
	ChaosInjections:         "ftsched_chaos_injections_total",
	DispatchEnergy:          "ftsched_dispatch_energy_total",
	ServeRequests:           "ftsched_serve_requests_total",
	ServeRejectedRate:       "ftsched_serve_rejected_rate_total",
	ServeRejectedLoad:       "ftsched_serve_rejected_load_total",
	ServeCacheHits:          "ftsched_serve_cache_hits_total",
	ServeCacheMisses:        "ftsched_serve_cache_misses_total",
	ServeReloads:            "ftsched_serve_reloads_total",
	ServeShed:               "ftsched_serve_shed_total",
	ServeDegraded:           "ftsched_serve_degraded_transitions_total",
	FaultwireInjections:     "ftsched_faultwire_injections_total",
	FaultwireLatency:        "ftsched_faultwire_latency_injections_total",
	FaultwireErrors:         "ftsched_faultwire_error_injections_total",
	FaultwireResets:         "ftsched_faultwire_reset_injections_total",
	FaultwireTruncates:      "ftsched_faultwire_truncate_injections_total",
	FaultwireCorrupts:       "ftsched_faultwire_corrupt_injections_total",
	ClientRequests:          "ftsched_client_requests_total",
	ClientAttempts:          "ftsched_client_attempts_total",
	ClientRetries:           "ftsched_client_retries_total",
	ClientRetriesExhausted:  "ftsched_client_retries_exhausted_total",
	ClientBreakerOpened:     "ftsched_client_breaker_opened_total",
	ClientBreakerClosed:     "ftsched_client_breaker_closed_total",
	ClientBreakerProbes:     "ftsched_client_breaker_probes_total",
	ClientBreakerFastFails:  "ftsched_client_breaker_fast_fails_total",
}

var counterHelp = [numCounters]string{
	FTQSNodesExpanded:       "Tree nodes expanded during FTQS synthesis.",
	FTQSMemoHits:            "Suffix-synthesis memoisation cache hits.",
	FTQSMemoMisses:          "Suffix-synthesis memoisation cache misses.",
	FTQSCandidatesKept:      "Candidate sub-schedules kept after interval partitioning.",
	FTQSCandidatesRejected:  "Candidate sub-schedules rejected (infeasible, duplicate, or below the gain threshold).",
	FTQSPrefetchHits:        "Retired: FTQS no longer prefetches speculatively; nothing emits this counter.",
	FTQSPrefetchMisses:      "Retired: FTQS no longer prefetches speculatively; nothing emits this counter.",
	FTQSWorkerBusyNanos:     "Nanoseconds spent in candidate generation across synthesis workers.",
	DispatchCycles:          "Operation cycles executed by the online dispatcher.",
	DispatchSwitches:        "Quasi-static schedule switches taken.",
	DispatchFaultsAbsorbed:  "Faults absorbed by re-execution within recovery slack.",
	DispatchFaultsAbandoned: "Processes abandoned after exhausting their recovery budget.",
	DispatchGuardFallbacks:  "Mid-cycle switches to an unusable node resolved by falling back to the root schedule.",
	MCRuns:                  "Monte-Carlo evaluations performed.",
	MCScenarios:             "Scenarios simulated across all Monte-Carlo evaluations.",
	TrimArcsEvaluated:       "Switch arcs priced by paired scenario replay during trimming.",
	TrimArcsRemoved:         "Switch arcs removed by trimming.",
	TrimReplays:             "Scenario replays performed while pricing arc removals.",
	CertifyScenarios:        "Adversarial scenarios explored during certification (each resumed from a recorded prefix where it matches).",
	CertifyPatterns:         "Fault patterns enumerated and certified.",
	CertifyPatternsPruned:   "Fault patterns pruned as canonically equivalent to an enumerated one.",
	CertifyBisectionRuns:    "Probe executions spent bisecting for guard-boundary execution times.",
	EnvelopeOverruns:        "Executions whose duration exceeded the process WCET (out-of-model).",
	EnvelopeExtraFaults:     "Transient faults consumed beyond the application bound k.",
	EnvelopeTimeRegressions: "Executions whose reported duration was negative (time ran backwards).",
	EnvelopeSheds:           "Cycles in which PolicyShedSoft dropped remaining soft work for the emergency hard-only suffix.",
	EnvelopeBudgetExhausted: "Processes abandoned after exhausting their recovery budget (BudgetExhausted violation events).",
	ChaosCycles:             "Operation cycles executed by chaos campaigns.",
	ChaosInjections:         "Chaos-campaign cycles perturbed out of the fault model.",
	DispatchEnergy:          "Total platform energy (active + idle, rounded) consumed across dispatched cycles.",
	ServeRequests:           "API requests admitted past admission control.",
	ServeRejectedRate:       "API requests rejected by a tenant token bucket (HTTP 429).",
	ServeRejectedLoad:       "API requests rejected by an in-flight cap or while draining (HTTP 503).",
	ServeCacheHits:          "Compiled-tree cache lookups served from an existing entry.",
	ServeCacheMisses:        "Compiled-tree cache lookups that synthesised and compiled a new entry.",
	ServeReloads:            "Hot tree recompilations atomically swapped into the cache.",
	ServeShed:               "Expensive-endpoint requests (certify, chaos) shed while the server was degraded.",
	ServeDegraded:           "Health state machine transitions into the degraded state.",
	FaultwireInjections:     "Wire faults injected by the faultwire middleware (all kinds).",
	FaultwireLatency:        "Injected request latency faults.",
	FaultwireErrors:         "Injected typed wire-error responses.",
	FaultwireResets:         "Injected mid-body connection resets.",
	FaultwireTruncates:      "Injected truncated response bodies.",
	FaultwireCorrupts:       "Injected corrupted response bodies.",
	ClientRequests:          "Logical API calls issued by the retrying client.",
	ClientAttempts:          "HTTP attempts issued by the retrying client (>= requests).",
	ClientRetries:           "Client re-attempts after a retryable failure.",
	ClientRetriesExhausted:  "Client calls abandoned after the attempt budget ran out.",
	ClientBreakerOpened:     "Circuit-breaker transitions to the open state.",
	ClientBreakerClosed:     "Circuit-breaker transitions back to the closed state.",
	ClientBreakerProbes:     "Half-open circuit-breaker probe attempts.",
	ClientBreakerFastFails:  "Client attempts short-circuited by an open circuit breaker.",
}

// Name returns the stable metric name of the counter ("" for an
// out-of-range value): the name WritePrometheus exports and a custom Sink
// labels its events with.
func (c Counter) Name() string {
	if c < 0 || c >= numCounters {
		return ""
	}
	return counterNames[c]
}

// Histogram identifies one fixed-bucket distribution.
type Histogram int

const (
	// DispatchGuardDepth is the binary-search depth (loop iterations over
	// group plus segment tables) of one guard lookup.
	DispatchGuardDepth Histogram = iota
	// DispatchHardSlack is the slack (deadline minus completion time) of a
	// completed hard process; violations land in the ≤0 bucket.
	DispatchHardSlack
	// DispatchSwitchNode is the NodeID switched to when a switch arc is
	// taken — the distribution of switch traffic across the tree.
	//
	// These three are per entry: a cycle resumed from a recorded prefix
	// (runtime.Replayer, as certification runs them) observes only the
	// entries it executed.
	DispatchSwitchNode
	// MCUtility is the per-scenario total utility (rounded to integer) of
	// a Monte-Carlo evaluation.
	MCUtility
	// CertifyWorstSlack is the worst (minimum) hard-deadline slack
	// observed per certified fault pattern; values at or below zero would
	// be counterexamples.
	CertifyWorstSlack
	// EnvelopeOverrunMagnitude is the amount by which an execution
	// exceeded its process WCET — the distribution of overrun severity.
	EnvelopeOverrunMagnitude
	// DispatchCycleEnergy is the total platform energy (active + idle,
	// rounded to integer energy units) of one dispatched cycle.
	DispatchCycleEnergy

	// ServeRequestNanos is the wall-clock handler latency of one admitted
	// API request, in nanoseconds (decode, cache lookup or compile,
	// evaluation, encode).
	ServeRequestNanos
	// ServeBatchCycles is the number of cycles carried by one batch
	// dispatch request — the wire amortisation factor.
	ServeBatchCycles

	// ClientAttemptsPerRequest is the number of HTTP attempts one logical
	// client call took (1 = first try succeeded); ClientRetryWaitMillis is
	// the backoff waited before each re-attempt, in milliseconds.
	ClientAttemptsPerRequest
	ClientRetryWaitMillis

	numHistograms
)

var histogramNames = [numHistograms]string{
	DispatchGuardDepth: "ftsched_dispatch_guard_search_depth",
	DispatchHardSlack:  "ftsched_dispatch_hard_slack",
	DispatchSwitchNode: "ftsched_dispatch_switch_node",
	MCUtility:          "ftsched_montecarlo_utility",
	CertifyWorstSlack:  "ftsched_certify_worst_slack",

	EnvelopeOverrunMagnitude: "ftsched_envelope_overrun_magnitude",
	DispatchCycleEnergy:      "ftsched_dispatch_cycle_energy",
	ServeRequestNanos:        "ftsched_serve_request_nanoseconds",
	ServeBatchCycles:         "ftsched_serve_batch_cycles",

	ClientAttemptsPerRequest: "ftsched_client_attempts_per_request",
	ClientRetryWaitMillis:    "ftsched_client_retry_wait_milliseconds",
}

var histogramHelp = [numHistograms]string{
	DispatchGuardDepth: "Binary-search depth per guard lookup in the compiled dispatch table (executed entries only when a cycle resumes a recorded prefix).",
	DispatchHardSlack:  "Hard-deadline slack (deadline - completion) per completed hard process; violations fall in the <=0 bucket (executed entries only when a cycle resumes a recorded prefix).",
	DispatchSwitchNode: "Target NodeID per schedule switch taken (executed entries only when a cycle resumes a recorded prefix).",
	MCUtility:          "Per-scenario total utility (rounded) observed by Monte-Carlo evaluation.",
	CertifyWorstSlack:  "Worst hard-deadline slack observed per certified fault pattern.",

	EnvelopeOverrunMagnitude: "Amount by which an execution exceeded its process WCET.",
	DispatchCycleEnergy:      "Total platform energy (active + idle, rounded) per dispatched cycle.",
	ServeRequestNanos:        "Handler latency per admitted API request, nanoseconds.",
	ServeBatchCycles:         "Cycles carried per batch dispatch request.",

	ClientAttemptsPerRequest: "HTTP attempts per logical client call (1 = first try succeeded).",
	ClientRetryWaitMillis:    "Backoff waited before each client re-attempt, milliseconds.",
}

// Name returns the stable metric name of the histogram ("" for an
// out-of-range value): the name WritePrometheus exports and a custom Sink
// labels its events with.
func (h Histogram) Name() string {
	if h < 0 || h >= numHistograms {
		return ""
	}
	return histogramNames[h]
}

// Sink receives instrumentation events. Implementations must be safe for
// concurrent use and must not allocate: these methods are called from the
// dispatcher's per-cycle hot path, which is asserted to run at zero
// allocations per cycle (see the hot-path rules in the package
// documentation).
type Sink interface {
	// Add increments counter c by delta.
	Add(c Counter, delta int64)
	// Observe records one sample v in histogram h.
	Observe(h Histogram, v int64)
	// ObserveN records n identical samples v in histogram h — the batched
	// form emitters use to flush per-cycle scratch with one call per
	// distinct value.
	ObserveN(h Histogram, v int64, n int64)
}

// NopSink discards every event. Instrumented code treats it exactly like a
// nil sink: a single never-taken branch per cycle, so disabled
// observability is free.
type NopSink struct{}

// Add implements Sink.
func (NopSink) Add(Counter, int64) {}

// Observe implements Sink.
func (NopSink) Observe(Histogram, int64) {}

// ObserveN implements Sink.
func (NopSink) ObserveN(Histogram, int64, int64) {}

// Live reports whether s is a sink worth emitting to: non-nil and not a
// NopSink. Instrumented subsystems normalise through Live once at setup so
// their hot paths test a single pointer.
func Live(s Sink) bool {
	if s == nil {
		return false
	}
	_, nop := s.(NopSink)
	return !nop
}
