package runtime

import (
	"slices"

	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/schedule"
)

// Replayer runs cycles that resume a recorded cycle instead of starting
// from the root. A cycle reads nothing of its Scenario but the duration
// and fault count of each process whose entry runs, so a scenario that
// agrees with the record on the processes of its first i entries reaches
// entry i in exactly the recorded state. Run restores that state and
// executes only entries i onwards; its Result equals RunInto's field for
// field, except that an empty HardViolations or Violations may be a
// non-nil empty slice.
//
// The state before each entry is kept as scalars: the node, entries,
// position and flags, the Result scalars, the lengths of the append-only
// HardViolations and Violations, and the per-core ready and busy times.
// An entry writes only its own process's outcome, completion time and
// fault budget, so those three values are recorded after it and a
// restore re-applies them in entry order (which stays right when a
// process runs twice, after a fallback to the root). Nothing n-sized is
// copied per entry.
//
// At its end the record keeps its cycle's utility accounting: the end
// outcomes and completion times, the stale-value coefficients α, and each
// completed soft process's term α_i·U_i(t_i). α depends only on which
// processes completed, so a cycle that runs without recording and ends
// with the record's completed set reuses it: it sums the cached term of
// every soft process whose completion time is the record's and a fresh
// one of every other, in the same order and to the same bits as the full
// recurrence. Any other cycle runs the recurrence, and a recording cycle
// runs it and refreshes the cache.
//
// A Replayer owns its cycle state and Result and is not safe for
// concurrent use; take one per goroutine. The Dispatcher's sink sees
// every cycle; its per-entry histograms count only executed entries.
type Replayer struct {
	d   *Dispatcher
	st  *cycleState
	res Result
	rec recorder
	// kept, moved and recomputed count the non-recording cycles that
	// reused the record's α with every completion time unchanged, reused
	// it with some changed, and ran the full recurrence.
	kept, moved, recomputed int
}

// recorder is a Replayer's record: the scenario of the recorded cycle
// and the state before each entry it ran.
type recorder struct {
	durations []model.Time
	faults    []int
	// snaps[i] is the state before the record's i-th entry; the last one
	// is the state its loop ended in.
	snaps []snapshot
	// cores holds each snapshot's ready times, then its busy times.
	cores []model.Time
	// hard and viol are the record's HardViolations and Violations, of
	// which a snapshot keeps only the lengths.
	hard []model.ProcessID
	viol []ViolationEvent
	// The recorded cycle's utility accounting: its end outcomes and
	// completion times, the α they gave, and by soft index the term of
	// each soft process that completed.
	outcomes []ProcessOutcome
	done     []model.Time
	alpha    []float64
	terms    []float64
}

// snapshot is the state of a cycle before one entry.
type snapshot struct {
	entries            []schedule.Entry
	node               core.NodeID
	pos                int
	after              action
	shedding, degraded bool
	abandoned          int64

	makespan, shedSlack, overrun              model.Time
	switches, fallbacks, consumed, recoveries int
	hard, viol                                int

	// proc is the entry's process (NoProcess for the end state); outcome,
	// done and left are what the entry left in its Outcomes,
	// CompletionTimes and fault-budget slots.
	proc    model.ProcessID
	outcome ProcessOutcome
	done    model.Time
	left    int
}

// NewReplayer returns a Replayer with an empty record, so its first Run
// executes from the root. The record starts sized for the root schedule.
func (d *Dispatcher) NewReplayer() *Replayer {
	n, m := len(d.kern.procs), len(d.tree.Nodes[0].Schedule.Entries)+1
	return &Replayer{d: d, st: d.newState(), rec: recorder{
		durations: make([]model.Time, 0, n),
		faults:    make([]int, 0, n),
		snaps:     make([]snapshot, 0, m),
		cores:     make([]model.Time, 0, 2*len(d.kern.cores)*m),
		outcomes:  make([]ProcessOutcome, 0, n),
		done:      make([]model.Time, 0, n),
		alpha:     make([]float64, 0, n),
		terms:     make([]float64, len(d.kern.soft)),
	}}
}

// Run executes sc from the record's state before the first entry whose
// process has a different duration or fault count in sc, or takes the
// record's end state when no process it ran differs. With record the
// cycle becomes the record from that entry on; without it the record is
// kept as it is. The Result is the Replayer's own and valid until the
// next Run; the errors are RunInto's, and a *ScenarioSizeError comes
// with a nil Result and leaves the record as it is.
func (r *Replayer) Run(sc Scenario, record bool) (*Result, error) {
	d, st, rec := r.d, r.st, &r.rec
	if err := d.checkScenario(sc); err != nil {
		return nil, err
	}
	i := r.resumeAt(sc)
	if i == 0 {
		d.reset(st, &r.res, sc, nil)
	} else {
		r.restore(i, sc)
	}
	// The end state may be a strict stop: its entry ran already.
	ended := i > 0 && i == len(rec.snaps)-1
	if record {
		rec.snaps, rec.cores = rec.snaps[:i], rec.cores[:2*len(st.ready)*i]
		rec.durations = append(rec.durations[:0], sc.Durations...)
		rec.faults = append(rec.faults[:0], sc.FaultsAt...)
		st.rec = rec
	}
	if !ended {
		d.loop(d, st)
	}
	if record {
		st.rec = nil
		rec.push(st, model.NoProcess)
		rec.hard = append(rec.hard[:0], r.res.HardViolations...)
		rec.viol = append(rec.viol[:0], r.res.Violations...)
	}
	r.res.Utility = r.utility(record)
	return &r.res, d.close(st)
}

// utility is the finished cycle's stale-value accounting, bit for bit
// what cycleUtility returns. A recording cycle runs the recurrence and
// keeps it in the record; any other reuses the record's α and terms
// while it ends with the record's completed set.
func (r *Replayer) utility(record bool) float64 {
	k, rec, res := &r.d.kern, &r.rec, &r.res
	if record {
		total := k.cycleUtility(r.d.tree.App, r.st, rec.terms)
		rec.outcomes = append(rec.outcomes[:0], res.Outcomes...)
		rec.done = append(rec.done[:0], res.CompletionTimes...)
		rec.alpha = append(rec.alpha[:0], r.st.alpha...)
		return total
	}
	if !rec.keepsCompleted(res.Outcomes) {
		r.recomputed++
		return k.cycleUtility(r.d.tree.App, r.st, nil)
	}
	var total float64
	moved := false
	for i, id := range k.soft {
		if res.Outcomes[id] != Completed {
			continue
		}
		t := rec.terms[i]
		if done := res.CompletionTimes[id]; done != rec.done[id] {
			t, moved = k.term(rec.alpha[id], id, done), true
		}
		total += t
	}
	if moved {
		r.moved++
	} else {
		r.kept++
	}
	return total
}

// keepsCompleted reports whether outcomes complete exactly the processes
// the record's cycle completed.
func (r *recorder) keepsCompleted(outcomes []ProcessOutcome) bool {
	if slices.Equal(outcomes, r.outcomes) {
		return true
	}
	if len(outcomes) != len(r.outcomes) {
		return false
	}
	for id, o := range outcomes {
		if (o == Completed) != (r.outcomes[id] == Completed) {
			return false
		}
	}
	return true
}

// resumeAt returns the index of the first recorded entry whose process
// has a different duration or fault count in sc, the end state's index
// when there is none, and 0 without a record.
func (r *Replayer) resumeAt(sc Scenario) int {
	rec := &r.rec
	last := len(rec.snaps) - 1
	for i := 0; i < last; i++ {
		p := rec.snaps[i].proc
		if sc.Durations[p] != rec.durations[p] || sc.FaultsAt[p] != rec.faults[p] {
			return i
		}
	}
	return max(last, 0)
}

// restore loads the record's state before entry i, for scenario sc.
func (r *Replayer) restore(i int, sc Scenario) {
	st, res, rec := r.st, &r.res, &r.rec
	clear(res.Outcomes)
	clear(res.CompletionTimes)
	copy(st.faultsLeft, sc.FaultsAt)
	for j := range rec.snaps[:i] {
		s := &rec.snaps[j]
		res.Outcomes[s.proc], res.CompletionTimes[s.proc], st.faultsLeft[s.proc] = s.outcome, s.done, s.left
	}
	s := &rec.snaps[i]
	st.res, st.events, st.durations = res, nil, sc.Durations
	st.node, st.entries, st.pos, st.after = s.node, s.entries, s.pos, s.after
	st.shedding, st.abandoned = s.shedding, s.abandoned
	res.HardViolations = append(res.HardViolations[:0], rec.hard[:s.hard]...)
	res.Violations = append(res.Violations[:0], rec.viol[:s.viol]...)
	res.Makespan, res.ShedSlack, res.OverrunTotal = s.makespan, s.shedSlack, s.overrun
	res.Switches, res.Fallbacks = s.switches, s.fallbacks
	res.FaultsConsumed, res.Recoveries, res.Degraded = s.consumed, s.recoveries, s.degraded
	nc := len(st.ready)
	copy(st.ready, rec.cores[2*nc*i:])
	copy(st.busy, rec.cores[2*nc*i+nc:])
}

// save is the cycle loops' hook: it records the state before the entry
// at st.pos.
func (r *recorder) save(st *cycleState) { r.push(st, st.entries[st.pos].Proc) }

// push completes the previous snapshot with what its entry wrote and
// appends the state of st, before an entry of proc.
func (r *recorder) push(st *cycleState, proc model.ProcessID) {
	res := st.res
	n := len(r.snaps)
	if n > 0 {
		s := &r.snaps[n-1]
		s.outcome, s.done, s.left = res.Outcomes[s.proc], res.CompletionTimes[s.proc], st.faultsLeft[s.proc]
	}
	// Filled in place: the entry's own values are set by the next push.
	r.snaps = slices.Grow(r.snaps, 1)[:n+1]
	s := &r.snaps[n]
	s.entries, s.node, s.pos, s.after = st.entries, st.node, st.pos, st.after
	s.shedding, s.degraded, s.abandoned = st.shedding, res.Degraded, st.abandoned
	s.makespan, s.shedSlack, s.overrun = res.Makespan, res.ShedSlack, res.OverrunTotal
	s.switches, s.fallbacks = res.Switches, res.Fallbacks
	s.consumed, s.recoveries = res.FaultsConsumed, res.Recoveries
	s.hard, s.viol, s.proc = len(res.HardViolations), len(res.Violations), proc
	r.cores = append(append(r.cores, st.ready...), st.busy...)
}
