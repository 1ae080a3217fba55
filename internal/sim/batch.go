// Batch evaluation engine: the throughput layer beneath MonteCarlo (and
// the chaos campaign driver). The design goal is raw scenarios/sec with
// bit-identical statistics for any worker count:
//
//   - Scenario indices are partitioned into fixed BlockSize blocks. The
//     block grid depends only on the scenario count — never on the worker
//     count — and each block is evaluated sequentially by exactly one
//     worker, so every per-block accumulator is a pure function of
//     (seed, block index).
//   - Workers claim blocks through the shared index-parallel loop
//     (par.For); the fold over per-block partials runs sequentially in
//     block order on the coordinating goroutine.
//     Floating-point sums therefore always reduce in the same order, which
//     is what makes MCStats bit-identical for 1, 2 or 64 workers — the
//     same determinism discipline certify and chaos enforce.
//   - Sampling is structure-of-arrays: one completion-time plane per
//     process, filled a block at a time with the per-process BCET/span
//     constants hoisted out of the scenario loop, from per-scenario
//     splitmix64 streams (RNG) seeded with ScenarioSeed. Per-scenario
//     reseeding is what decouples the scenario stream from the
//     partitioning; doing it with RNG instead of math/rand is what makes
//     it free (a store instead of a 607-word re-expansion).
//   - Aggregation is streaming: running sum/min/max/counters per block
//     plus one fixed-bucket utility histogram per worker. No per-scenario
//     result is retained, so a 10^6-scenario evaluation allocates the same
//     few fixed buffers as a 10^3-scenario one.
//
// The compiled runtime.Dispatcher is immutable and safe for concurrent
// use, so all workers share one dispatcher and keep only their Scenario
// and Result scratch private — the "dispatcher shard" is the per-worker
// scratch, not a copy of the dispatch table.

package sim

import (
	"context"
	"math"

	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/par"
	"ftsched/internal/runtime"
)

// BlockSize is the fixed scenario-block granularity of the sharded
// evaluation driver. It balances three pressures: blocks long enough to
// amortise per-block setup and keep the structure-of-arrays planes
// cache-resident, short enough that small evaluations still spread over
// workers, and — most importantly — fixed, because the block grid is part
// of the determinism contract: changing BlockSize changes the
// floating-point fold order and thus the last bits of MCStats.
const BlockSize = 256

// RunBlocks partitions the index range [0, n) into fixed BlockSize blocks
// and runs them through the shared index-parallel loop (par.For) on
// min(workers, blocks) goroutines. newRunner is called once per worker
// (allocate reusable scratch there); the returned function is then called
// with (block, lo, hi) for every block the worker claims, sequentially and
// in increasing block order per worker. Workers claim blocks dynamically,
// so which worker runs a block varies from run to run — anything a block
// writes must therefore depend only on the block index, never on the
// worker index (per-worker state may be reused as scratch but must not
// leak between blocks in index-dependent ways).
//
// Cancellation is checked before every block: on ctx expiry workers stop
// within one block and RunBlocks returns ctx.Err(). A block error stops
// the whole run; the first error in block order is not guaranteed — first
// failure wins — so treat errors as fatal, not per-block data.
func RunBlocks(ctx context.Context, n, workers int, newRunner func(worker int) func(block, lo, hi int) error) error {
	blocks := (n + BlockSize - 1) / BlockSize
	return par.For(ctx, blocks, workers, func(w int) func(int) error {
		run := newRunner(w)
		return func(b int) error {
			lo := b * BlockSize
			return run(b, lo, min(lo+BlockSize, n))
		}
	})
}

// blockStats is the streaming accumulator of one scenario block. All
// fields are exactly mergeable across blocks: the integer counters and
// min/max are associative, and the float sums are folded in fixed block
// order, so the reduction is a pure function of (seed, scenario count).
type blockStats struct {
	n              int
	sum, sumSq     float64
	min, max       float64
	hardViolations int
	degraded       int
	events         int
	switches       int64
	recoveries     int64
	// energy sums (total / active / idle), folded in block order like the
	// utility sums so the means are bit-identical for any worker count.
	energy       float64
	energyActive float64
	energyIdle   float64
}

// mcBuckets is the resolution of the streaming utility histogram behind
// the MCStats percentiles: 256 equal-width buckets over [0, the
// application's utility upper bound], each tracking (count, min, max).
// Nearest-rank selection lands in a bucket and interpolates between that
// bucket's observed min and max, so the percentile error is bounded by
// one bucket width (≤ 0.4% of the utility range) and collapses to exact
// whenever a bucket holds a single distinct value.
const mcBuckets = 256

// mcHist is one worker's utility histogram. Bucket counts and per-bucket
// min/max merge commutatively, so per-worker histograms fold to the same
// merged histogram for any worker count.
type mcHist struct {
	width  float64
	counts [mcBuckets]int64
	mins   [mcBuckets]float64
	maxs   [mcBuckets]float64
}

func newMCHist(width float64) *mcHist {
	h := &mcHist{width: width}
	for i := range h.mins {
		h.mins[i] = math.Inf(1)
		h.maxs[i] = math.Inf(-1)
	}
	return h
}

func (h *mcHist) bucket(u float64) int {
	if h.width <= 0 || u <= 0 {
		return 0
	}
	b := int(u / h.width)
	if b >= mcBuckets {
		b = mcBuckets - 1
	}
	return b
}

func (h *mcHist) add(u float64) {
	b := h.bucket(u)
	h.counts[b]++
	if u < h.mins[b] {
		h.mins[b] = u
	}
	if u > h.maxs[b] {
		h.maxs[b] = u
	}
}

// merge folds other into h; both operations commute, so merge order does
// not affect the result.
func (h *mcHist) merge(other *mcHist) {
	for b := 0; b < mcBuckets; b++ {
		h.counts[b] += other.counts[b]
		if other.mins[b] < h.mins[b] {
			h.mins[b] = other.mins[b]
		}
		if other.maxs[b] > h.maxs[b] {
			h.maxs[b] = other.maxs[b]
		}
	}
}

// quantile returns the nearest-rank p-quantile estimate: the rank's bucket
// is located by cumulative count, then the value interpolates between the
// bucket's observed min and max by rank position. Estimates are monotone
// in p and always lie between observed values, so
// Min ≤ Q(0.05) ≤ Q(0.50) ≤ Q(0.95) ≤ Max holds by construction.
func (h *mcHist) quantile(p float64, total int) float64 {
	if total <= 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > int64(total) {
		rank = int64(total)
	}
	var cum int64
	for b := 0; b < mcBuckets; b++ {
		c := h.counts[b]
		if c == 0 {
			continue
		}
		if rank <= cum+c {
			if c == 1 || h.maxs[b] == h.mins[b] {
				return h.mins[b]
			}
			frac := float64(rank-cum-1) / float64(c-1)
			return h.mins[b] + (h.maxs[b]-h.mins[b])*frac
		}
		cum += c
	}
	return 0
}

// utilityUpperBound returns a sound upper bound on the total utility of
// any scenario: Σ over soft processes of U_p(0). Utility functions are
// non-increasing and non-negative, and the stale coefficients α are in
// [0, 1], so no completed set can exceed it. It depends only on the
// application, which keeps the histogram geometry — and therefore the
// percentile estimates — independent of the worker count and the
// scenario stream.
func utilityUpperBound(app *model.Application) float64 {
	var total float64
	for id := 0; id < app.N(); id++ {
		total += app.UtilityOf(model.ProcessID(id)).Value(0)
	}
	return total
}

// mcBatch wires one Monte-Carlo evaluation through the block driver.
type mcBatch struct {
	app        *model.Application
	d          *runtime.Dispatcher
	cfg        MCConfig
	candidates []model.ProcessID
	sink       obs.Sink
	// bcet and span are the hoisted per-process sampling constants,
	// read-only across workers.
	bcet []model.Time
	span []int64
	// partials is indexed by block; hists by worker.
	partials []blockStats
	hists    []*mcHist
	histW    float64
}

func newMCBatch(app *model.Application, d *runtime.Dispatcher, cfg MCConfig, candidates []model.ProcessID, sink obs.Sink) *mcBatch {
	n := app.N()
	e := &mcBatch{
		app:        app,
		d:          d,
		cfg:        cfg,
		candidates: candidates,
		sink:       sink,
		bcet:       make([]model.Time, n),
		span:       make([]int64, n),
		partials:   make([]blockStats, (cfg.Scenarios+BlockSize-1)/BlockSize),
		histW:      utilityUpperBound(app) / mcBuckets,
	}
	for id := 0; id < n; id++ {
		p := app.Proc(model.ProcessID(id))
		e.bcet[id] = p.BCET
		e.span[id] = int64(p.WCET - p.BCET)
	}
	return e
}

// runner builds one worker's block function with all scratch preallocated:
// the per-scenario RNG states, the per-process completion-time planes, the
// flat victim buffer, and the reused Scenario/Result pair. Nothing inside
// the block loop allocates, which is what keeps the steady state at ~0
// allocations per scenario (TestMonteCarloBatchAllocs).
func (e *mcBatch) runner(worker int) func(block, lo, hi int) error {
	n := e.app.N()
	nf := e.cfg.Faults
	rngs := make([]RNG, BlockSize)
	planes := make([][]model.Time, n)
	for p := range planes {
		planes[p] = make([]model.Time, BlockSize)
	}
	var victims []model.ProcessID
	if nf > 0 {
		victims = make([]model.ProcessID, nf*BlockSize)
	}
	sc := Scenario{
		Durations: make([]model.Time, n),
		FaultsAt:  make([]int, n),
		NFaults:   nf,
	}
	var res runtime.Result
	hist := newMCHist(e.histW)
	e.hists[worker] = hist

	return func(block, lo, hi int) error {
		blen := hi - lo
		// Phase 1 — reseed: one splitmix64 state per scenario of the
		// block, derived from (Seed, scenario index) exactly as the
		// scalar sampler would.
		for j := 0; j < blen; j++ {
			rngs[j].Reseed(ScenarioSeed(e.cfg.Seed, lo+j))
		}
		// Phase 2 — structure-of-arrays sampling: fill each process's
		// completion-time plane across the whole block with that
		// process's BCET/span constants held in registers. Each scenario
		// draws from its own stream in process-ID order, so the
		// per-scenario draw sequence is identical to SampleRNGInto's.
		for p := 0; p < n; p++ {
			plane := planes[p]
			base := e.bcet[p]
			if spa := e.span[p]; spa > 0 {
				for j := 0; j < blen; j++ {
					plane[j] = base + model.Time(rngs[j].Int63n(spa+1))
				}
			} else {
				for j := 0; j < blen; j++ {
					plane[j] = base
				}
			}
		}
		if nf > 0 {
			pool := e.candidates
			for j := 0; j < blen; j++ {
				r := &rngs[j]
				for f := 0; f < nf; f++ {
					victims[j*nf+f] = pool[r.Intn(len(pool))]
				}
			}
		}
		// Phase 3 — dispatch and streaming aggregation: gather each
		// scenario from the planes into the reused Scenario, run it
		// through the shared compiled dispatcher, and accumulate into
		// this block's partial (plus the worker's histogram).
		bs := &e.partials[block]
		bs.min = math.Inf(1)
		bs.max = math.Inf(-1)
		for j := 0; j < blen; j++ {
			for p := 0; p < n; p++ {
				sc.Durations[p] = planes[p][j]
				sc.FaultsAt[p] = 0
			}
			for f := 0; f < nf; f++ {
				sc.FaultsAt[victims[j*nf+f]]++
			}
			if err := e.d.RunInto(&res, sc); err != nil {
				return err
			}
			u := res.Utility
			bs.n++
			bs.sum += u
			bs.sumSq += u * u
			if u < bs.min {
				bs.min = u
			}
			if u > bs.max {
				bs.max = u
			}
			if len(res.HardViolations) > 0 {
				bs.hardViolations++
			}
			if res.Degraded {
				bs.degraded++
			}
			bs.events += len(res.Violations)
			bs.switches += int64(res.Switches)
			bs.recoveries += int64(res.Recoveries)
			bs.energy += res.Energy
			bs.energyActive += res.EnergyActive
			bs.energyIdle += res.EnergyIdle
			hist.add(u)
			if e.sink != nil {
				e.sink.Observe(obs.MCUtility, int64(math.Round(u)))
			}
		}
		return nil
	}
}

// run executes the evaluation and folds the statistics. The fold walks
// blocks in index order (float sums) and merges the per-worker histograms
// (commutative), so the returned MCStats is bit-identical for any worker
// count.
func (e *mcBatch) run(ctx context.Context) (MCStats, error) {
	workers := e.cfg.Workers
	blocks := len(e.partials)
	if workers > blocks {
		workers = blocks
	}
	e.hists = make([]*mcHist, workers)
	err := RunBlocks(ctx, e.cfg.Scenarios, workers, e.runner)

	if e.sink != nil {
		// Scenario throughput covers what actually ran, even when the
		// evaluation is abandoned for cancellation.
		var simulated int64
		for i := range e.partials {
			simulated += int64(e.partials[i].n)
		}
		e.sink.Add(obs.MCScenarios, simulated)
	}
	if err != nil {
		return MCStats{}, err
	}
	if e.sink != nil {
		e.sink.Add(obs.MCRuns, 1)
	}

	stats := MCStats{Scenarios: e.cfg.Scenarios}
	var sum, sumSq float64
	var energy, energyActive, energyIdle float64
	var switches, recoveries int64
	first := true
	for i := range e.partials {
		p := &e.partials[i]
		if p.n == 0 {
			continue
		}
		sum += p.sum
		sumSq += p.sumSq
		energy += p.energy
		energyActive += p.energyActive
		energyIdle += p.energyIdle
		if first || p.min < stats.MinUtility {
			stats.MinUtility = p.min
		}
		if first || p.max > stats.MaxUtility {
			stats.MaxUtility = p.max
		}
		first = false
		stats.HardViolations += p.hardViolations
		stats.Degraded += p.degraded
		stats.Violations += p.events
		switches += p.switches
		recoveries += p.recoveries
	}
	n := float64(e.cfg.Scenarios)
	stats.MeanUtility = sum / n
	stats.MeanSwitches = float64(switches) / n
	stats.MeanRecoveries = float64(recoveries) / n
	stats.MeanEnergy = energy / n
	stats.MeanEnergyActive = energyActive / n
	stats.MeanEnergyIdle = energyIdle / n
	if e.cfg.Scenarios > 1 {
		variance := (sumSq - sum*sum/n) / (n - 1)
		if variance > 0 {
			stats.StdDev = math.Sqrt(variance)
		}
	}
	merged := e.hists[0]
	for _, h := range e.hists[1:] {
		merged.merge(h)
	}
	stats.P05 = merged.quantile(0.05, e.cfg.Scenarios)
	stats.P50 = merged.quantile(0.50, e.cfg.Scenarios)
	stats.P95 = merged.quantile(0.95, e.cfg.Scenarios)
	return stats, nil
}
