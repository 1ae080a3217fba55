// Package certify exhaustively certifies a quasi-static tree against the
// real online dispatcher: it enumerates every fault pattern with up to k
// transient faults, crosses each pattern with extreme execution-time
// corners, executes every resulting scenario through runtime.Dispatcher —
// the deployed interpreter, not a re-implementation, resuming recorded
// cycles where scenarios share a prefix — and either reports
// that no explored execution misses a hard deadline or returns a typed
// *CounterexampleError carrying the offending scenario, ready for replay
// with ftsim -replay.
//
// # What is enumerated
//
// Fault patterns are multisets of victim processes (the processes of the
// root f-schedule) of size 0..MaxFaults. Faults beyond a victim's maximum
// re-execution attempts can never materialise — a process abandoned after
// its last recovery never runs again — so patterns are canonicalised by
// capping each victim's count at its attempt bound and deduplicated on
// the capped count vector; the pruned count is reported and counted on
// obs.CertifyPatternsPruned.
//
// Execution-time corners per process are its BCET and WCET plus
// deadline-adjacent boundary times: per-process bisection (all other
// processes pinned at WCET, no faults) locates the durations where the
// dispatcher's discrete behaviour — final node, switch count, completions,
// violations — changes, and both sides of each change point become
// corners. Guard thresholds and deadline boundaries are step functions of
// the durations, so these are exactly the interesting times between the
// two extremes.
//
// # Modes
//
// When patterns x (product of per-process corner counts) fits the
// configured Budget, every combination runs ("exhaustive" mode — the
// paper-sized applications land here). Otherwise the engine degrades,
// explicitly, to "frontier" mode: for every pattern it runs the all-BCET
// and all-WCET profiles plus every single-process corner deviation against
// both backgrounds. The report says which mode ran; there is no silent
// truncation. Applications beyond the paper's sizes certify in frontier
// mode: the cruise controller and every application of the repo
// benchmark's design workload do.
//
// # Resumption
//
// Scenarios run through runtime.Replayer rather than from the root. A
// cycle reads only the duration and fault count of each process whose
// entry runs, so a scenario that agrees with a recorded cycle on the
// processes of its first i entries reaches entry i in the recorded state;
// the replayer restores that state and executes the rest, and books its
// utility from the record's α while the cycle ends with the record's
// completed set (see runtime.Replayer). Each worker
// holds two replayers, one per frontier background: the all-BCET and
// all-WCET profiles record, and every single-process deviation resumes
// its background's record at that process's first entry, as a leaf that
// leaves the record intact. The backgrounds stay recorded across a
// worker's patterns, so the next pattern's background resumes at the
// first process whose fault count changed. In exhaustive mode the
// odometer steps that carried record, and the steps that move only the
// last process resume that record as leaves. The scenario order is
// unchanged, so the report and the counterexample are those of a sweep
// that runs every scenario from the root, which the tests keep as their
// oracle. A live sink sees every dispatch counter as that sweep would;
// the per-entry histograms count only the entries executed.
//
// # Determinism
//
// Patterns are distributed over Config.Workers goroutines through the same
// index-parallel loop (par.For) the Monte-Carlo evaluator uses; per-pattern
// exploration is sequential and outcomes are folded in pattern order, so
// the report — and
// the counterexample, chosen as the lowest (pattern, scenario) index — is
// identical for any worker count.
package certify
