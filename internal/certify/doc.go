// Package certify exhaustively certifies a quasi-static tree against the
// real online dispatcher: it enumerates every fault pattern with up to k
// transient faults, crosses each pattern with extreme execution-time
// corners, executes every resulting scenario through runtime.Dispatcher —
// the deployed interpreter, not a re-implementation — and either reports
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
// capping each victim's count at its attempt bound and deduplicated on a
// bitset key (the same ProcKey snapshots the synthesis memoisation uses);
// the pruned count is reported and counted on obs.CertifyPatternsPruned.
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
// truncation.
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
