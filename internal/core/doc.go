// Package core implements the scheduling contribution of Izosimov et al.
// (DATE 2008): FTSS, the static scheduling heuristic for fault tolerance and
// utility maximisation (§5.2), and FTQS, the quasi-static tree synthesis
// built on top of it (§5.1), together with the runtime switching policy that
// an online scheduler executes.
//
// # Invariants the algorithms rely on
//
// The application graph is a polar DAG (paper §2): a single source and a
// single sink delimit every operation cycle, so "all predecessors have
// completed" is a well-defined readiness condition and a schedule is a
// topological order of the scheduled subset. model.Application.Validate
// enforces polarity and acyclicity before anything in this package runs.
//
// Execution is non-preemptive on a single computation node (paper §2.2):
// once a process starts it runs to completion (or to a fault), so a
// schedule is fully described by an ordering plus per-process recovery
// counts, and completion times are prefix sums. Re-execution is the only
// fault-tolerance mechanism; the shared recovery slack that pays for it is
// documented in package schedule.
//
// A model.Application is immutable after Validate: FTSS, FTQS and the
// simulator only read it, which is what makes concurrent synthesis sound.
//
// # Concurrency and determinism
//
// FTQS expands one node at a time. The positions of that node are fanned
// out over FTQSOptions.Workers goroutines through the shared index-parallel
// loop (par.For), and suffix syntheses that differ only in the order
// history was accumulated are memoised. Candidate generation is
// side-effect-free; the coordinator collects each node's candidates in
// position order and attaches them in the serial expansion order, so the
// synthesised tree is identical — entry for entry, guard for guard — for
// every worker count.
//
// # Interval partitioning
//
// Each candidate prices its guard by comparing two suffix evaluators, the
// parent's continuation and the child's, at completion times across its
// window (§5.1). An evaluator remembers its last value together with the
// window of start times over which no utility term can change: a soft
// entry's completion is max(t + A, B) in the start time t, so it moves by
// at most |Δt|, and the utility's Span bounds how far it may move before
// its value changes. Staircase utilities make most probes fall inside that
// window, and those return the cached value, bit for bit the full walk's.
// An evaluator is therefore stateful: each candidate builds its own pair,
// and none is shared between the synthesis workers.
package core
