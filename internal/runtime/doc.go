// Package runtime is the online half of the scheduler: it executes
// operation cycles against a synthesised quasi-static tree. The paper's
// premise (§1, §5) is that all expensive analysis happens off-line and the
// online scheduler only "would have to switch to the corresponding
// schedule" from observed completion times and faults — this package is
// that fast path, factored out of the simulation layer so simulators,
// baselines and a future embedded target all share one interpreter.
//
// The central type is Dispatcher, a compiled form of a core.Tree. The
// arena tree already stores each node's arcs contiguously in the canonical
// (Pos, Kind, Gain-descending) order; NewDispatcher additionally resolves
// the overlaps between same-group guards (higher gain wins) into disjoint,
// Lo-sorted segments, so a runtime switch decision is two binary searches
// — one for the (position, outcome-kind) group, one for the completion
// time — with no per-arc gain comparison left at run time.
//
// A cycle is four parts. An explicit cycleState holds what the cycle
// changes: the active node, position and entries, the per-core ready and
// busy times, the fault budgets, the envelope flags and the counters. The
// attempt kernel runs one entry's attempts and alone knows the recovery
// semantics; a per-entry step wraps it with envelope detection, outcome
// booking, shedding and guard dispatch; a finish pass records hard
// processes that never ran and computes utility and energy. NewDispatcher
// picks the cycle loop once from the platform: the paper's single clock,
// or per-core timelines with cross-core precedence and synchronised
// switch points. Kernel lends the attempt kernel to the online
// rescheduler in internal/sim. Replayer resumes a recorded cycle at the
// first entry whose process a new scenario changes, for callers that run
// many scenarios sharing prefixes — certification in internal/certify.
// Its record ends with the recorded cycle's utility accounting (outcomes,
// completion times, α and the per-soft-process terms), so a resumed cycle
// that completes the same processes reuses α and recomputes only the
// terms whose completion time moved.
//
// A Dispatcher is immutable after construction and safe for concurrent
// use. The execution entry points are allocation-free on the hot path:
// RunInto reuses the caller's Result buffers and per-cycle scratch
// (fault budgets, stale statuses, stale-value coefficients α) comes from
// an internal sync.Pool. The finish pass, Kernel and a recording Replayer
// share one utility accounting, which hands that scratch to
// model.StaleCoefficients; the recurrence walks the application's own
// topology, so the Dispatcher keeps no copy of it, only the table of its
// soft process IDs. Monte-Carlo evaluation in internal/sim drives one
// shared Dispatcher from many goroutines; see BenchmarkDispatch for the
// per-cycle cost.
package runtime
