// Package ftsched synthesises fault-tolerant schedules for embedded
// applications with mixed soft and hard real-time constraints, implementing
// the quasi-static scheduling approach of
//
//	V. Izosimov, P. Pop, P. Eles, Z. Peng:
//	"Scheduling of Fault-Tolerant Embedded Systems with Soft and Hard
//	Timing Constraints", DATE 2008, pp. 915-920.
//
// Applications are directed acyclic graphs of non-preemptable processes.
// Hard processes carry deadlines that must hold under up to k transient
// faults; soft processes carry non-increasing time/utility functions and
// may be dropped, degrading their successors through stale-value
// coefficients.
//
// The facade exposes the paper's three synthesis algorithms and the tools
// around them:
//
//   - FTSS — a static f-schedule with shared recovery slack that
//     guarantees the hard deadlines in the worst case while maximising the
//     expected utility (paper §5.2);
//   - FTQS — a quasi-static tree of f-schedules with guarded switch arcs
//     derived by interval partitioning; a trivial online scheduler (Run,
//     NewDispatcher) follows the tree, adapting to observed completion
//     times and faults (paper §5.1);
//   - FTSF — the straightforward baseline used in the paper's evaluation;
//   - MonteCarlo and TrimTree — the §6 evaluation and simulation-based
//     arc trimming;
//   - WithPlatform/NewPlatform and WithRecovery/RestartModel/
//     CheckpointModel — heterogeneous cores and recovery models beyond
//     re-execution, honoured by every algorithm;
//   - Certify — exhaustive k-fault certification of a tree;
//   - WithEnvelope and RunChaos — out-of-model containment and chaos
//     campaigns that prove it;
//   - NewMetrics, WithSink and ServeMetrics — observability that never
//     alters results.
//
// # Quick start
//
//	app := ftsched.NewApplication("demo", 300, 1, 10)
//	p1 := app.AddProcess(ftsched.Process{Name: "P1", Kind: ftsched.Hard,
//		BCET: 30, AET: 50, WCET: 70, Deadline: 180})
//	p2 := app.AddProcess(ftsched.Process{Name: "P2", Kind: ftsched.Soft,
//		BCET: 30, AET: 50, WCET: 70,
//		Utility: ftsched.MustStepUtility([]ftsched.Time{90, 200}, []float64{40, 20})})
//	app.MustAddEdge(p1, p2)
//	if err := app.Validate(); err != nil { ... }
//	tree, err := ftsched.FTQS(app, ftsched.FTQSOptions{M: 16})
//	stats, err := ftsched.MonteCarlo(tree, ftsched.MCConfig{Scenarios: 10000})
package ftsched

import (
	"context"
	"io"
	"net/http"

	"ftsched/internal/appio"
	"ftsched/internal/apps"
	"ftsched/internal/baseline"
	"ftsched/internal/certify"
	"ftsched/internal/chaos"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
	"ftsched/internal/schedule"
	"ftsched/internal/sim"
	"ftsched/internal/utility"
)

// Core model types.
type (
	// Time is the discrete time base of the library (milliseconds in the
	// paper's examples).
	Time = model.Time
	// ProcessID identifies a process within its application.
	ProcessID = model.ProcessID
	// Process describes one node of the application graph.
	Process = model.Process
	// Application is a validated process graph plus fault parameters.
	Application = model.Application
	// UtilityFunction is a non-increasing time/utility function U(t).
	UtilityFunction = utility.Function
)

// Platform types. An application is canonically bound to a single
// unit-speed computation node (the paper's model); WithPlatform attaches a
// heterogeneous set of cores plus a process→core mapping, and the whole
// pipeline — synthesis, certification, dispatch, energy accounting —
// honours the per-core speed and power parameters.
type (
	// CoreID addresses a core within its platform.
	CoreID = model.CoreID
	// Core is one processing core: relative speed plus active/idle power.
	Core = model.Core
	// Platform is a validated, immutable set of cores.
	Platform = model.Platform
	// Mapping assigns every process a primary and a recovery core.
	Mapping = model.Mapping
)

// NewPlatform validates and builds a platform from its cores.
func NewPlatform(cores ...Core) (*Platform, error) { return model.NewPlatform(cores...) }

// BiasedMapping returns the deterministic default mapping: primaries
// round-robin over the lowest-active-power cores, every re-execution on the
// fastest core.
func BiasedMapping(app *Application, p *Platform) Mapping { return model.BiasedMapping(app, p) }

// ParseCoreSpec parses a "name:speed:powerActive:powerIdle,..." platform
// description (the ftgen -core-spec flag syntax).
func ParseCoreSpec(spec string) (*Platform, error) { return appio.ParseCoreSpec(spec) }

// Recovery-model types. An application canonically recovers by
// re-execution with overhead µ (the paper's model); WithRecovery attaches
// a different model — full restart after a fixed latency, or
// checkpoint-and-rollback — and the whole pipeline (synthesis, worst-case
// analysis, certification, dispatch, chaos) honours its per-attempt and
// per-fault costs.
type (
	// RecoveryModel describes how a faulted process attempt is recovered;
	// its zero value is the canonical re-execution model.
	RecoveryModel = model.RecoveryModel
	// RecoveryError reports an invalid recovery-model parameter.
	RecoveryError = model.RecoveryError
)

// ReExecutionModel returns the canonical re-execution recovery model.
func ReExecutionModel() RecoveryModel { return model.ReExecutionModel() }

// RestartModel returns a full-restart recovery model: every fault costs the
// fixed latency plus a complete re-run.
func RestartModel(latency Time) RecoveryModel { return model.RestartModel(latency) }

// CheckpointModel returns a checkpoint-and-rollback recovery model:
// checkpoints every spacing time units (each costing overhead), a fault
// rolls back to the last checkpoint for rollback plus the final segment.
func CheckpointModel(spacing, overhead, rollback Time) RecoveryModel {
	return model.CheckpointModel(spacing, overhead, rollback)
}

// ParseRecoverySpec parses a "reexec" / "restart:LATENCY" /
// "checkpoint:SPACING:OVERHEAD:ROLLBACK" recovery-model description (the
// CLI -recovery flag syntax).
func ParseRecoverySpec(spec string) (RecoveryModel, error) { return appio.ParseRecoverySpec(spec) }

// Schedule types.
type (
	// FSchedule is a fault-tolerant static schedule.
	FSchedule = schedule.FSchedule
	// Tree is a quasi-static tree of f-schedules.
	Tree = core.Tree
	// FTQSOptions tunes the tree synthesis.
	FTQSOptions = core.FTQSOptions
	// Dispatcher is the compiled, allocation-free online scheduler for a
	// tree; use it instead of Run when simulating many cycles.
	Dispatcher = runtime.Dispatcher
)

// Simulation types.
type (
	// Scenario fixes execution times and fault victims for one cycle.
	Scenario = sim.Scenario
	// RunResult is the outcome of executing one scenario.
	RunResult = runtime.Result
	// MCConfig parametrises a Monte-Carlo evaluation.
	MCConfig = sim.MCConfig
	// MCStats aggregates a Monte-Carlo evaluation.
	MCStats = sim.MCStats
)

// Process kinds.
const (
	Hard = model.Hard
	Soft = model.Soft
)

// Simulated process outcomes, as recorded in RunResult.Outcomes.
const (
	// Completed: ran to completion, possibly after re-execution.
	Completed = runtime.Completed
	// AbandonedByFault: hit by a fault with no recovery budget left.
	AbandonedByFault = runtime.AbandonedByFault
)

// ErrUnschedulable is returned when no schedule can guarantee the hard
// deadlines under k faults.
var ErrUnschedulable = core.ErrUnschedulable

// UnschedulableError is the typed form of ErrUnschedulable: synthesis
// failures carry the offending process (negative when the period itself is
// exceeded), the violated bound and the worst-case completion that violates
// it. errors.Is(err, ErrUnschedulable) keeps matching; errors.As extracts
// the detail.
type UnschedulableError = core.UnschedulableError

// Graceful-degradation errors. Malformed inputs to the runtime layer
// surface as typed errors instead of panics; errors.As extracts the
// detail.
type (
	// MalformedTreeError reports a tree that failed the structural audit
	// at dispatcher construction (out-of-range node IDs, missing
	// schedules, cyclic parent links, inconsistent guard segments).
	MalformedTreeError = runtime.MalformedTreeError
	// ScenarioSizeError reports a scenario whose per-process slices do
	// not match the application.
	ScenarioSizeError = runtime.ScenarioSizeError
	// MCConfigError reports the MCConfig field an evaluation rejected
	// (non-positive Scenarios, negative Faults or Workers), carrying the
	// field name and the offending value.
	MCConfigError = sim.ConfigError
)

// Out-of-model containment types. A dispatcher built with WithEnvelope
// detects events the paper's fault model excludes — WCET overruns, faults
// beyond the bound k, mid-cycle time regressions — records them on
// RunResult.Violations, and applies the configured degrade policy. See
// internal/runtime for the exact detection and shedding semantics.
type (
	// EnvelopeConfig configures the containment layer for WithEnvelope.
	EnvelopeConfig = runtime.EnvelopeConfig
	// EnvelopeError is the typed error PolicyStrict returns when a cycle
	// leaves the fault model; its Events round-trip through JSON.
	EnvelopeError = runtime.EnvelopeError
)

// Degrade policies: how an envelope reacts to the first out-of-model
// event of a cycle (EnvelopeConfig.Policy, ChaosConfig.Policy).
const (
	// PolicyStrict aborts the cycle with a typed *EnvelopeError.
	PolicyStrict = runtime.PolicyStrict
	// PolicyShedSoft drops remaining soft work and finishes the hard
	// processes on a precomputed emergency suffix schedule.
	PolicyShedSoft = runtime.PolicyShedSoft
	// PolicyBestEffort keeps dispatching and records the violations.
	PolicyBestEffort = runtime.PolicyBestEffort
)

// WithEnvelope attaches the out-of-model containment layer to a
// dispatcher: detection of WCET overruns, >k faults and time regressions,
// plus the configured degrade policy. PolicyShedSoft precomputes the
// emergency hard-only suffix schedules at construction time, so the shed
// path stays allocation-free per cycle.
func WithEnvelope(cfg EnvelopeConfig) DispatcherOption { return runtime.WithEnvelope(cfg) }

// Chaos types. A chaos campaign adversarially proves the containment
// layer by injecting out-of-model scenarios (overruns, fault bursts
// beyond k, stuck processes, time regressions) through the real compiled
// dispatcher and scoring the containment contract on every cycle; see
// internal/chaos for the contract and determinism guarantees.
type (
	// ChaosConfig parametrises a chaos campaign (cycles, seed, policy,
	// injection probabilities and magnitudes, victim targeting, sink).
	ChaosConfig = chaos.Config
	// ChaosReport aggregates a campaign: per-kind event totals and the
	// contract scores (breaches, in-model misses, detection gaps,
	// panics), plus every per-cycle record. Reports are bit-identical
	// for a given seed across worker counts and reruns.
	ChaosReport = chaos.Report
	// ChaosCampaign is a compiled campaign, reusable across runs.
	ChaosCampaign = chaos.Campaign
	// ChaosConfigError reports the ChaosConfig field a campaign rejected,
	// carrying the field name and the offending value.
	ChaosConfigError = chaos.ConfigError
)

// NewChaosCampaign validates cfg and compiles tree with the envelope
// under test; the campaign can then be run repeatedly.
func NewChaosCampaign(tree *Tree, cfg ChaosConfig) (*ChaosCampaign, error) {
	return chaos.New(tree, cfg)
}

// RunChaos compiles and executes a chaos campaign against tree. The
// returned error is a validation error — containment findings (panics,
// breaches, misses) are scored on the report, never returned as errors.
// It is RunChaosContext with a background context.
func RunChaos(tree *Tree, cfg ChaosConfig) (*ChaosReport, error) {
	return RunChaosContext(context.Background(), tree, cfg)
}

// RunChaosContext is RunChaos honouring cancellation.
func RunChaosContext(ctx context.Context, tree *Tree, cfg ChaosConfig) (*ChaosReport, error) {
	return chaos.RunContext(ctx, tree, cfg)
}

// Certification types. Certify enumerates every fault pattern up to the
// bound, crossed with extreme execution-time corners, and executes all of
// it through the real compiled dispatcher; see internal/certify for the
// enumeration and canonicalisation details.
type (
	// CertifyConfig parameterises a certification run (fault bound,
	// workers, scenario budget, bisection depth, sink).
	CertifyConfig = certify.Config
	// CertifyReport summarises what a certification run explored: mode,
	// pattern/scenario counts, worst hard-deadline slack, and the
	// utility-minimising fault placement.
	CertifyReport = certify.Report
	// CounterexampleError is the error Certify returns when
	// certification fails. Its Counterexample is a concrete
	// hard-deadline-missing execution: the exact scenario, the violated
	// process and deadline, and the tree path taken.
	CounterexampleError = certify.CounterexampleError
	// CertifyConfigError reports the CertifyConfig field a certification
	// rejected, carrying the field name and the offending value.
	CertifyConfigError = certify.ConfigError
)

// Observability types. A Sink receives counter increments and histogram
// samples from synthesis, dispatch and simulation; Metrics is the built-in
// atomic collector. Instrumentation never alters results: every tree,
// schedule and statistic is bit-identical with or without a sink.
type (
	// Sink consumes instrumentation events. Implementations must be safe
	// for concurrent use and should never block; see internal/obs for the
	// contract.
	Sink = obs.Sink
	// Counter identifies a monotonic event counter (e.g. dispatch cycles).
	Counter = obs.Counter
	// HistogramMetric identifies a value distribution (e.g. hard-deadline
	// slack per completed process).
	HistogramMetric = obs.Histogram
	// Metrics is the built-in Sink: fixed atomic counters and power-of-two
	// bucket histograms, allocation-free on the event path.
	Metrics = obs.Metrics
	// DispatcherOption configures NewDispatcher (see WithSink).
	DispatcherOption = runtime.Option
)

// NopSink is a Sink that discards every event; passing NopSink{} anywhere
// a Sink is accepted is equivalent to passing nil.
type NopSink = obs.NopSink

// NewMetrics returns an empty metrics collector ready to be passed as the
// Sink of FTQSOptions, MCConfig, TrimConfig or WithSink.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// WithSink routes a dispatcher's per-cycle events (cycles, switches, guard
// search depth, faults absorbed/abandoned, hard-deadline slack) to s. A nil
// or NopSink sink leaves the dispatcher uninstrumented; RunInto stays
// allocation-free either way.
func WithSink(s Sink) DispatcherOption { return runtime.WithSink(s) }

// MetricsHandler returns an http.Handler exposing m in Prometheus text
// format under /metrics, as JSON expvars under /debug/vars, and the pprof
// profiles under /debug/pprof/.
func MetricsHandler(m *Metrics) http.Handler { return obs.Handler(m) }

// ServeMetrics starts an HTTP server for MetricsHandler(m) on addr (":0"
// picks a free port) and returns the bound address and a shutdown function.
// The ftsim and ftexperiments -metrics-addr flags are thin wrappers over
// it.
func ServeMetrics(addr string, m *Metrics) (string, func() error, error) {
	return obs.Serve(addr, m)
}

// NewApplication creates an empty application with period T, fault bound k
// and default recovery overhead µ. Add processes and edges, then Validate.
func NewApplication(name string, period Time, k int, mu Time) *Application {
	return model.NewApplication(name, period, k, mu)
}

// Merge combines validated multi-rate applications into one application
// over their hyper-period (LCM of the periods), replicating activations
// with shifted releases, deadlines and utility functions.
func Merge(name string, k int, mu Time, graphs ...*Application) (*Application, error) {
	return model.Merge(name, k, mu, graphs...)
}

// MustStepUtility builds a staircase utility function: vs[i] up to and
// including ts[i], then 0 after the last step. It panics on invalid input.
func MustStepUtility(ts []Time, vs []float64) UtilityFunction {
	return utility.MustStep(ts, vs)
}

// FTSS synthesises the static fault-tolerant schedule of §5.2.
func FTSS(app *Application) (*FSchedule, error) { return core.FTSS(app) }

// FTQS synthesises a quasi-static tree of at most opts.M schedules (§5.1).
// The synthesis fans each node's candidate positions out over
// opts.Workers goroutines (default: GOMAXPROCS) and memoises identical
// suffix syntheses across the tree; the resulting tree is identical for
// every worker count. It is FTQSContext with a background context.
func FTQS(app *Application, opts FTQSOptions) (*Tree, error) {
	return FTQSContext(context.Background(), app, opts)
}

// FTQSContext is FTQS honouring cancellation: ctx is checked before each
// node expansion and each candidate position, so synthesis aborts within
// one position per worker and returns ctx.Err() with all worker goroutines
// reaped.
func FTQSContext(ctx context.Context, app *Application, opts FTQSOptions) (*Tree, error) {
	return core.FTQSContext(ctx, app, opts)
}

// FTSF synthesises the paper's baseline: a value-maximal non-fault-tolerant
// schedule patched with recovery slack for the hard processes.
func FTSF(app *Application) (*FSchedule, error) { return baseline.FTSF(app) }

// VerifyTree statically audits a quasi-static tree: structural invariants,
// fault-budget consistency, and the safety of every switch guard (hard
// deadlines hold when a switch is taken at the guard's upper bound). Use
// it before deploying a tree that was stored, transferred or modified.
func VerifyTree(tree *Tree) error { return core.VerifyTree(tree) }

// ExpectedUtility evaluates the no-fault expected utility of a schedule
// under average execution times — the paper's static figure of merit.
func ExpectedUtility(app *Application, s *FSchedule) float64 {
	return schedule.ExpectedUtility(app, s)
}

// StaticTree wraps a static schedule as a one-node tree so it can be
// simulated by Run/MonteCarlo.
func StaticTree(app *Application, s *FSchedule) *Tree { return sim.StaticTree(app, s) }

// Run executes one scenario against a tree with the online scheduler,
// compiling a dispatcher for the call; use NewDispatcher to run many. It
// returns a *MalformedTreeError for a structurally broken tree and a
// *ScenarioSizeError for mis-sized scenario slices.
func Run(tree *Tree, sc Scenario) (RunResult, error) {
	d, err := runtime.NewDispatcher(tree)
	if err != nil {
		return RunResult{}, err
	}
	return d.Run(sc)
}

// NewDispatcher compiles a tree's switch guards into a binary-searchable
// dispatch table and returns a reusable, allocation-free online scheduler.
// The tree must not be mutated while the dispatcher is in use. Pass
// WithSink to instrument its cycles. A tree failing the structural audit
// (core.VerifyStructure) yields a *MalformedTreeError, never a panic.
func NewDispatcher(tree *Tree, opts ...DispatcherOption) (*Dispatcher, error) {
	return runtime.NewDispatcher(tree, opts...)
}

// Certify exhaustively certifies a tree against up to CertifyConfig.
// MaxFaults transient faults (default: the application bound k): every
// canonical fault pattern is crossed with extreme execution-time corners
// (BCET/WCET plus bisection-located behaviour boundaries) and executed
// through the real compiled dispatcher. It returns a report of what was
// explored and, when an execution misses a hard deadline, a
// *CounterexampleError carrying the exact scenario for replay with
// ftsim -replay. Results are identical for any worker count. It is
// CertifyContext with a background context.
func Certify(tree *Tree, cfg CertifyConfig) (CertifyReport, error) {
	return CertifyContext(context.Background(), tree, cfg)
}

// CertifyContext is Certify honouring cancellation, checked before every
// scenario; on cancellation ctx.Err() is returned.
func CertifyContext(ctx context.Context, tree *Tree, cfg CertifyConfig) (CertifyReport, error) {
	return certify.CertifyContext(ctx, tree, cfg)
}

// MonteCarlo evaluates a tree over cfg.Scenarios random scenarios on the
// batch evaluation engine: scenario blocks are spread over
// MCConfig.Workers goroutines and statistics stream into fixed
// accumulators, so throughput scales to millions of scenarios without
// per-scenario allocation and MCStats is bit-identical for any worker
// count (see docs/PERFORMANCE.md). It is MonteCarloContext with a
// background context.
func MonteCarlo(tree *Tree, cfg MCConfig) (MCStats, error) {
	return MonteCarloContext(context.Background(), tree, cfg)
}

// MonteCarloContext is MonteCarlo honouring cancellation: every worker
// checks ctx before each scenario block, so the evaluation unwinds within
// one block per worker and returns ctx.Err(); partial statistics are
// discarded.
func MonteCarloContext(ctx context.Context, tree *Tree, cfg MCConfig) (MCStats, error) {
	return sim.MonteCarloContext(ctx, tree, cfg)
}

// TrimConfig parametrises simulation-based arc trimming.
type TrimConfig = sim.TrimConfig

// TrimTree removes switch arcs whose measured effect on the mean utility
// is non-positive (paired Monte-Carlo replay), pruning nodes that become
// unreachable. An extension beyond the paper: interval partitioning prices
// arcs with an estimate, and trimming removes the marginal arcs that the
// estimate got wrong. Safety is unaffected. Returns the number of arcs
// removed. It is TrimTreeContext with a background context.
func TrimTree(tree *Tree, cfg TrimConfig) (int, error) {
	return TrimTreeContext(context.Background(), tree, cfg)
}

// TrimTreeContext is TrimTree honouring cancellation, checked before every
// scenario replay. On cancellation every already-disabled arc is restored —
// the tree is left exactly as passed in — and (0, ctx.Err()) is returned.
func TrimTreeContext(ctx context.Context, tree *Tree, cfg TrimConfig) (int, error) {
	return sim.TrimContext(ctx, tree, cfg)
}

// CruiseController builds the 32-process vehicle cruise controller of the
// paper's case study (9 hard processes, k = 2, µ = 10% WCET).
func CruiseController() *Application { return apps.CruiseController() }

// PaperFig1 builds the paper's running example (Fig. 1 application).
func PaperFig1() *Application { return apps.Fig1() }

// WriteTree persists a quasi-static tree as compact JSON: interned process
// names, suffix-only schedules and a flat arc arena. The format tag fits
// the application — v2 for a canonical one, v3 when it carries a
// non-canonical platform, v4 when it carries a recovery model — so an
// older reader refuses a tree it cannot bind. ReadTree also still loads
// the original v1 files.
func WriteTree(w io.Writer, tree *Tree) error { return appio.EncodeTreeCompact(w, tree) }

// ReadTree loads a stored quasi-static tree and rebinds it to the
// application. Run VerifyTree on the result before trusting it.
func ReadTree(r io.Reader, app *Application) (*Tree, error) { return appio.DecodeTree(r, app) }
