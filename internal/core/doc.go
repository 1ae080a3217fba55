// Package core implements the scheduling contribution of Izosimov et al.
// (DATE 2008): FTSS, the static scheduling heuristic for fault tolerance and
// utility maximisation (§5.2), and FTQS, the quasi-static tree synthesis
// built on top of it (§5.1), together with the runtime switching policy that
// an online scheduler executes.
//
// # Invariants the algorithms rely on
//
// The application graph is a DAG, so "all predecessors have completed" is
// a well-defined readiness condition and a schedule is a topological order
// of the scheduled subset. The paper's graphs are also polar (§2: a single
// source and a single sink delimit every operation cycle); the schedulers
// do not need that. model.Application.Validate enforces acyclicity,
// positive WCETs and BCET ≤ AET ≤ WCET before anything in this package
// runs.
//
// Execution is non-preemptive (paper §2.2): once a process starts it runs
// to completion (or to a fault), so a schedule is fully described by an
// ordering plus per-process recovery counts. The paper's platform is a
// single computation node; an application may instead be mapped onto a
// heterogeneous model.Platform, where each process runs on its primary
// core at that core's speed, waits for its predecessors on other cores,
// and recovers on its recovery core. Three recovery models pay for a
// fault: re-execution from scratch after the overhead µ (the paper's
// model), restart after a fixed node-restart latency, and checkpoint
// rollback, where every attempt takes checkpoints and a fault re-runs only
// the final segment. The shared recovery slack that covers k faults under
// each model is documented in package schedule. FTSS's utility
// projections keep a scalar expected-time clock on every platform — they
// rank candidates — while every placement is checked against the exact
// worst-case analysis of schedule.Prefix.
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
// Each worker owns one FTSS state for the whole synthesis: par.For builds
// a worker's function once per node with the worker index, and the
// synthesizer hands worker w the same state every time. A run resets the
// state's tables in place, so it allocates only the entries it returns,
// which the memo keeps. Worker w of one node and worker w of the next
// never overlap, because par.For returns only after every worker has
// exited. The per-process tables (kind, release, expected attempt time,
// utility function) are built once per synthesis and only read.
//
// # Recomputing only what changed
//
// Within an FTSS run, a value is recomputed only when its inputs change,
// and each cached value is bit for bit what a fresh computation gives:
//
//   - the projection with every ready soft process kept (the dropping
//     heuristic's S_i') is the same for every candidate, so it is computed
//     once per drop;
//   - the stale coefficients under the dropped set alone are recomputed
//     only after a drop;
//   - the hard tail shared by the soft candidates is recomputed only after
//     a hard process is placed, and a ready hard candidate's tail is that
//     tail with the candidate left out. A ready process has no unscheduled
//     predecessor, so leaving it out changes no modified deadline, and
//     every successor it would free has a strictly later modified
//     deadline (WCET > 0), so the EDF walk over the rest is unchanged;
//   - the coefficients with one more process p dropped (S_i”) start from
//     those under the dropped set alone and rerun the α recurrence only
//     over p's cone: p and its descendants, in topological order. No other
//     coefficient depends on p's status, and each cone member is
//     recomputed from the same predecessor values in the same order. A
//     state builds a process's cone on first use;
//   - a projection walks a compact list of the soft processes neither
//     scheduled nor dropped, and each greedy round scans only the members
//     whose projected predecessors are all placed. The greedy pick is the
//     maximum of a strict total order (density, then lowest ID), so the
//     scan order cannot change it.
//
// The worst-case analysis every candidate check extends reads the
// application's analysis rows (model.Application.Timings: release,
// deadline, kind, primary core, scaled attempt WCET and worst recovery
// cost), which a validated application builds once and every
// schedule.Prefix shares, so no check re-derives a platform scale or a
// recovery cost.
//
// # Interval partitioning
//
// Each candidate prices its guard by comparing two suffix evaluators, the
// parent's continuation and the child's, at completion times across its
// window (§5.1). An evaluator remembers every window of start times over
// which a walk's value cannot change: a soft entry's completion is
// max(t + A, B) in the start time t, so it moves by at most |Δt|, and the
// utility's Span bounds how far it may move before its value changes.
// Staircase utilities make most probes fall inside a window, and those
// return the window's value, which is bit for bit the full walk's: the
// same terms summed in the same order. Each term's value and span come
// from one lookup (utility.Table.ValueSpan), and each process's utility
// and quadrature durations from tables built once per synthesis.
//
// The parent's continuation after a position is the same for every
// candidate there, so a worker builds one parent evaluator per position
// and dropped-set assumption (the node's, or with the guarded entry
// dropped too), and every candidate at the position probes it: a window
// one candidate walked answers the others. Evaluators are stateful, so
// each worker keeps its own parent and child evaluators in its scratch,
// reset in place, together with the process sets and buffers pricing
// needs; pricing a position allocates only the candidates it returns and
// their intervals. None is shared between the synthesis workers. The
// guard's safety bound t_i^c is a binary search over start times; each
// probe analyses the child's suffix in the worker's FTSS scratch prefix,
// reset in place.
package core
