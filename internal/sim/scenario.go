package sim

import (
	"fmt"

	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/runtime"
	"ftsched/internal/schedule"
)

// Scenario fixes everything that is random in one operation cycle; see
// runtime.Scenario for the modelling choices.
type Scenario = runtime.Scenario

// SampleError reports a sampling request the application cannot satisfy:
// a fault count outside [0, k], or faults requested with an empty victim
// pool. Without this check an empty pool would panic inside RNG.Intn and
// an over-bound count would silently produce scenarios the trees carry no
// guarantee for.
type SampleError struct {
	// NFaults is the requested fault count; Bound is the application's k.
	NFaults, Bound int
	// EmptyPool is set when faults were requested but the candidate pool
	// was empty.
	EmptyPool bool
}

// Error implements error.
func (e *SampleError) Error() string {
	if e.EmptyPool {
		return fmt.Sprintf("sim: cannot aim %d fault(s): empty victim candidate pool", e.NFaults)
	}
	return fmt.Sprintf("sim: fault count %d outside the application bound [0,%d]", e.NFaults, e.Bound)
}

// SampleRNGInto draws a scenario for the application into sc, reusing its
// buffers: uniform execution times in process-ID order, then nFaults
// faults aimed at uniformly chosen victims (with replacement) among the
// candidate processes. Candidates are typically the processes of the root
// schedule; pass nil to draw victims from all processes (the same stream
// as passing every process ID in order, without building that pool). It
// returns a *SampleError when nFaults is outside [0, app.K()] or positive
// with an empty candidate pool; on error, sc is unchanged and rng is
// untouched.
//
// It is the sampler every evaluation runs: the batch engine behind
// MonteCarlo, chaos campaigns, Trim and the CLIs all draw through it.
// Scenario j of an evaluation is drawn from NewRNG(ScenarioSeed(seed, j))
// (the engine reseeds one RNG per worker to that state). Once sc has been
// sized, a call allocates nothing.
func SampleRNGInto(sc *Scenario, app *model.Application, rng *RNG, nFaults int, candidates []model.ProcessID) error {
	if nFaults < 0 || nFaults > app.K() {
		return &SampleError{NFaults: nFaults, Bound: app.K()}
	}
	if nFaults > 0 && candidates != nil && len(candidates) == 0 {
		return &SampleError{NFaults: nFaults, EmptyPool: true}
	}
	n := app.N()
	if cap(sc.Durations) < n {
		sc.Durations = make([]model.Time, n)
	} else {
		sc.Durations = sc.Durations[:n]
	}
	if cap(sc.FaultsAt) < n {
		sc.FaultsAt = make([]int, n)
	} else {
		sc.FaultsAt = sc.FaultsAt[:n]
		for i := range sc.FaultsAt {
			sc.FaultsAt[i] = 0
		}
	}
	sc.NFaults = nFaults
	for id := 0; id < n; id++ {
		p := app.ProcRef(model.ProcessID(id))
		span := int64(p.WCET - p.BCET)
		d := p.BCET
		if span > 0 {
			d += model.Time(rng.Int63n(span + 1))
		}
		sc.Durations[id] = d
	}
	for i := 0; i < nFaults; i++ {
		if candidates == nil {
			sc.FaultsAt[rng.Intn(n)]++
		} else {
			sc.FaultsAt[candidates[rng.Intn(len(candidates))]]++
		}
	}
	return nil
}

// rootVictims returns the processes of the tree's root schedule in
// schedule order: the victim pool MonteCarlo and Trim aim faults at.
func rootVictims(tree *core.Tree) []model.ProcessID {
	entries := tree.Root().Schedule.Entries
	victims := make([]model.ProcessID, len(entries))
	for i, e := range entries {
		victims[i] = e.Proc
	}
	return victims
}

// StaticTree wraps a single f-schedule as a degenerate one-node tree so
// that static schedules (FTSS, FTSF) run through the same online executor
// as quasi-static trees.
func StaticTree(app *model.Application, s *schedule.FSchedule) *core.Tree {
	return &core.Tree{
		App: app,
		Nodes: []core.Node{{
			Schedule:       s,
			SwitchPos:      0,
			KRem:           app.K(),
			DroppedOnFault: model.NoProcess,
			Parent:         core.NoNode,
		}},
	}
}
