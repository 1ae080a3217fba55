// Package sim executes quasi-static trees online and evaluates them with
// Monte-Carlo simulation, reproducing the experimental methodology of
// Izosimov et al. (DATE 2008), §6: actual execution times are uniformly
// distributed between the best-case and worst-case execution times, and 0,
// 1, 2, ... k transient faults are injected per operation cycle.
//
// The online scheduler itself lives in package runtime: a compiled
// runtime.Dispatcher mirrors the paper's runtime model, walking one
// root-to-leaf path of the quasi-static tree, executing the current
// f-schedule non-preemptively and consulting the precomputed switch guards
// at each completion, fault recovery, or fault-induced drop. Switching
// costs a single guard lookup — the "very low online overhead" claim of
// §1 — because all optimisation happened offline. This package speaks the
// runtime vocabulary (runtime.Result, runtime.Completed, ...) directly.
//
// Simulation never mutates the tree or the application; trees synthesised
// by package core (including concurrently, with FTQSOptions.Workers > 1)
// can therefore be evaluated from many goroutines at once, which is how
// MonteCarlo parallelises its scenario sweep.
//
// Scenario sampling is bound-checked: SampleRNGInto, the one scalar
// sampler, rejects fault counts outside [0, k] and empty victim pools with
// a typed *SampleError before consuming any RNG state or mutating the
// destination scenario, so a rejected call leaves both the RNG stream and
// the caller's buffers exactly as they were.
//
// MonteCarlo runs on the batch evaluation engine (batch.go): scenarios
// are cut into fixed 256-scenario blocks, each scenario of a block is
// drawn by SampleRNGInto and dispatched with the worker's reused scratch,
// and workers claim whole blocks through RunBlocks. The engine's determinism
// contract is that MCStats is bit-identical for every MCConfig.Workers
// value: scenario i is always seeded from ScenarioSeed(Seed, i), the
// block grid depends only on the scenario count, and floating-point
// partials are folded sequentially in block order after the parallel
// fill, so no schedule interleaving can reorder an addition. Chaos
// campaigns (package chaos) shard their cycles through the same
// RunBlocks driver under the same contract.
package sim
