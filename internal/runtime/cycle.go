package runtime

import (
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/schedule"
	"ftsched/internal/utility"
)

// cycleState is the explicit state of one operation cycle: everything the
// dispatcher reads and writes between two entries. Dispatchers pool it,
// so concurrent cycles on one Dispatcher stay allocation-free.
type cycleState struct {
	res       *Result
	events    *[]TraceEvent // nil unless tracing
	durations []model.Time

	// The active node and entries — the node's schedule, or its emergency
	// hard-only suffix after a shed — and the entry about to run. after is
	// what follows each entry (see trip).
	node    core.NodeID
	entries []schedule.Entry
	pos     int
	after   action

	// ready[c] is core c's next free time and busy[c] its active time; on
	// the canonical platform ready[0] is the paper's single clock.
	ready, busy []model.Time
	faultsLeft  []int // injected faults still aimed at each process
	// shedding: PolicyShedSoft tripped — hard entries re-execute without
	// budget, soft victims of extra faults are abandoned immediately.
	shedding bool

	// abandoned counts run-time drops and depthCounts[d] the guard lookups
	// that searched d steps, for a live sink; the envelope counters derive
	// from res.Violations.
	abandoned   int64
	depthCounts [depthBuckets]int32

	// Scratch of the stale-value utility accounting.
	status []utility.StaleStatus
	alpha  []float64

	// rec, when non-nil, saves the state before every entry: a Replayer
	// recording the cycle it may later resume.
	rec *recorder
}

// depthBuckets caps the guard binary-search depths tracked per cycle; the
// last slot absorbs deeper searches (unreachable below 2^14 dispatch
// groups per node).
const depthBuckets = 16

// tally records one guard lookup's search depth in st when a sink is
// live.
func (d *Dispatcher) tally(st *cycleState, depth int) {
	if st != nil && d.sink != nil {
		st.depthCounts[min(depth, depthBuckets-1)]++
	}
}

// action tells a cycle loop what follows an entry.
type action uint8

const (
	actDispatch action = iota // consult the guard table
	actShed                   // shed soft work, go on with the emergency suffix
	actNext                   // go on with the next entry, no guard dispatch
	actStop                   // strict containment: stop dispatching
)

// trip applies the degrade policy to an out-of-model event, effective
// once the current entry is accounted: PolicyStrict stops the cycle,
// PolicyShedSoft sheds once (and re-executes hard entries without budget
// from now on), PolicyBestEffort only records.
func (st *cycleState) trip(p DegradePolicy) {
	switch p {
	case PolicyStrict:
		st.after = actStop
	case PolicyShedSoft:
		st.shedding = true
		if st.after == actDispatch {
			st.after = actShed
		}
	}
}

// run executes one cycle: begin, the platform loop NewDispatcher
// selected, then finish. The non-nil error is a strict *EnvelopeError.
func (d *Dispatcher) run(res *Result, sc Scenario, events *[]TraceEvent) error {
	st := d.begin(res, sc, events)
	d.loop(d, st)
	return d.finish(st)
}

// begin takes a pooled cycleState and resets it and res before the
// root's first entry.
func (d *Dispatcher) begin(res *Result, sc Scenario, events *[]TraceEvent) *cycleState {
	st := d.bufs.Get().(*cycleState)
	d.reset(st, res, sc, events)
	return st
}

// reset positions st before the root's first entry of sc, booking onto
// res.
func (d *Dispatcher) reset(st *cycleState, res *Result, sc Scenario, events *[]TraceEvent) {
	// Field by field: a composite-literal reset copies the whole Result.
	res.Outcomes = resize(res.Outcomes, len(d.kern.procs))
	res.CompletionTimes = resize(res.CompletionTimes, len(d.kern.procs))
	res.HardViolations = res.HardViolations[:0]
	res.Violations = res.Violations[:0]
	res.Utility, res.Makespan, res.Switches, res.Fallbacks = 0, 0, 0, 0
	res.FaultsConsumed, res.Recoveries = 0, 0
	res.Degraded, res.ShedSlack, res.OverrunTotal = false, 0, 0
	st.res, st.events, st.durations = res, events, sc.Durations
	st.node, st.pos, st.after = 0, 0, actDispatch
	st.entries = d.tree.Nodes[0].Schedule.Entries
	for c := range st.ready {
		st.ready[c], st.busy[c] = 0, 0
	}
	copy(st.faultsLeft, sc.FaultsAt)
	st.shedding, st.abandoned = false, 0
}

// loopCanonical is the cycle loop of the paper's platform — one core at
// speed 1 — where entries run back to back on ready[0], the single clock.
// Like loopMapped it runs the shared step, then does what st.after asks:
// guard dispatch, the shed, or the strict stop. Both loops run from
// st.pos, so a Replayer can resume them mid-cycle.
func (d *Dispatcher) loopCanonical(st *cycleState) {
	for ; st.pos < len(st.entries); st.pos++ {
		if st.rec != nil {
			st.rec.save(st)
		}
		e := st.entries[st.pos]
		end, outcome := d.step(st, e, max(st.ready[0], d.kern.procs[e.Proc].Release), 0)
		switch st.after {
		case actDispatch:
			if next := d.next(st.node, st.pos, end, outcome, st); next != st.node {
				d.switchTo(st, e.Proc, end, next)
			}
		case actShed:
			d.shed(st)
		case actStop:
			return
		}
	}
}

// loopMapped is the cycle loop of any other platform. An entry starts
// when its primary core is free, it is released, and its completed
// predecessors have finished on their own cores (abandoned or dropped
// ones impose nothing: stale value). A guard switch is taken only when
// every core has caught up to the decision time: switch points are
// synchronisation points, so the child schedule's verified start state
// (all cores free at the guard time) soundly over-approximates the
// actual one. Staying on the current node is always deadline-safe.
func (d *Dispatcher) loopMapped(st *cycleState) {
	res := st.res
	for ; st.pos < len(st.entries); st.pos++ {
		if st.rec != nil {
			st.rec.save(st)
		}
		e := st.entries[st.pos]
		pc := d.kern.primCore[e.Proc]
		start := max(st.ready[pc], d.kern.procs[e.Proc].Release)
		for _, q := range d.preds[e.Proc] {
			if res.Outcomes[q] == Completed && res.CompletionTimes[q] > start {
				start = res.CompletionTimes[q]
			}
		}
		end, outcome := d.step(st, e, start, pc)
		switch st.after {
		case actDispatch:
			if !synced(st.ready, end) {
				continue
			}
			if next := d.next(st.node, st.pos, end, outcome, st); next != st.node {
				d.switchTo(st, e.Proc, end, next)
			}
		case actShed:
			d.shed(st)
		case actStop:
			return
		}
	}
}

// step runs the entry e from start, its first attempt on core pc:
// envelope detection, the attempt kernel, and outcome booking with the
// BudgetExhausted event, the trace and the sink. It returns the time the
// entry ended and the outcome guard dispatch keys on.
func (d *Dispatcher) step(st *cycleState, e schedule.Entry, start model.Time, pc int32) (model.Time, core.EntryOutcome) {
	p := &d.kern.procs[e.Proc]
	dur, excess := st.durations[e.Proc], model.Time(0)
	if d.env != nil && (dur < 0 || dur > p.WCET) {
		dur, excess = d.detect(st, e.Proc, p, start, pc)
	}
	end, f := d.kern.attempts(st, e, p.Kind == model.Hard, pc, start, dur, excess)
	book(st.res, e.Proc, p, end, f)
	outcome := core.CompletedOK
	switch f {
	case fateRecovered:
		outcome = core.CompletedRecovered
	case fateBudget, fateShed:
		outcome = core.DroppedByFault
		st.abandoned++
		if f == fateBudget {
			// Exactly Recoveries+1 attempts ran, each hit by a fault.
			st.res.Violations = append(st.res.Violations, ViolationEvent{Kind: BudgetExhausted, Proc: e.Proc, At: end, Magnitude: model.Time(e.Recoveries + 1)})
		}
	}
	if st.events != nil {
		kind := TraceComplete
		if outcome == core.DroppedByFault {
			kind = TraceAbandon
		}
		*st.events = append(*st.events, TraceEvent{Kind: kind, At: end, Proc: e.Proc})
	}
	if d.sink != nil && outcome != core.DroppedByFault && p.Kind == model.Hard {
		d.sink.Observe(obs.DispatchHardSlack, int64(p.Deadline-end))
	}
	return end, outcome
}

// synced reports whether every core is free by t.
func synced(ready []model.Time, t model.Time) bool {
	for _, r := range ready {
		if r > t {
			return false
		}
	}
	return true
}

// detect records entry proc's sampled duration, outside [0, WCET], as an
// out-of-model event before it runs. A negative duration is a
// TimeRegression stamped at the start; one beyond WCET is a WCETOverrun
// stamped at the end of the first attempt as executed — clamped, scaled
// to core pc and with checkpoint overheads. It returns the duration the
// attempts execute (truncated under Clamp) and the excess beyond WCET
// each attempt materialises.
func (d *Dispatcher) detect(st *cycleState, proc model.ProcessID, p *model.Process, start model.Time, pc int32) (dur, excess model.Time) {
	res := st.res
	dur = st.durations[proc]
	if dur < 0 {
		res.Violations = append(res.Violations, ViolationEvent{Kind: TimeRegression, Proc: proc, At: start, Magnitude: -dur})
		if d.env.Clamp {
			dur = 0
		}
	} else {
		over := dur - p.WCET
		if d.env.Clamp {
			dur = p.WCET
		} else {
			excess = over
		}
		res.Violations = append(res.Violations, ViolationEvent{Kind: WCETOverrun, Proc: proc, At: start + d.kern.rec.AttemptTime(d.kern.scale(pc, dur)), Magnitude: over})
	}
	st.trip(d.env.Policy)
	return dur, excess
}

// shed applies PolicyShedSoft at the first out-of-model event: every
// remaining soft entry is dropped and the cycle finishes the hard ones on
// the precomputed emergency suffix. ShedSlack conservatively accounts
// only the soft entries skipped before the first remaining hard one —
// time guaranteed returned before the next hard deadline is at stake.
func (d *Dispatcher) shed(st *cycleState) {
	for _, e := range st.entries[st.pos+1:] {
		sp := &d.kern.procs[e.Proc]
		if sp.Kind == model.Hard {
			break
		}
		// A shed entry returns its whole fault-free attempt, checkpoint
		// overheads included.
		st.res.ShedSlack += d.kern.rec.AttemptTime(sp.WCET)
	}
	// Guard dispatch stops: positions now index the emergency suffix, and
	// the guards price soft utility that was just shed.
	st.entries = d.emergency.Suffix(st.node, st.pos+1)
	st.pos = -1
	st.after = actNext
	st.res.Degraded = true
}

// switchTo takes the guard switch from the active node to next, chosen
// after process proc ended at tc.
func (d *Dispatcher) switchTo(st *cycleState, proc model.ProcessID, tc model.Time, next core.NodeID) {
	// Graceful degradation: the construction audit guarantees every
	// compiled segment targets a usable node, so an unusable target here
	// means the table (or the tree behind it) was corrupted after
	// construction. Fall back to the root f-schedule — safe for any ≤ k
	// scenario by the paper's root guarantee — rather than dereferencing
	// a broken node.
	if next < 0 || int(next) >= len(d.tree.Nodes) || d.tree.Nodes[next].Schedule == nil {
		st.res.Fallbacks++
		if next = 0; next == st.node {
			return
		}
	}
	if d.sink != nil {
		d.sink.Observe(obs.DispatchSwitchNode, int64(next))
	}
	st.node = next
	st.entries = d.tree.Nodes[next].Schedule.Entries
	st.res.Switches++
	if st.events != nil {
		*st.events = append(*st.events, TraceEvent{Kind: TraceSwitch, At: tc, Proc: proc, Node: int(next)})
	}
}

// finish books the cycle's utility, closes it and returns the cycle
// state to the pool.
func (d *Dispatcher) finish(st *cycleState) error {
	st.res.Utility = d.kern.cycleUtility(d.tree.App, st, nil)
	err := d.close(st)
	st.res, st.events, st.durations = nil, nil, nil
	d.bufs.Put(st)
	return err
}

// close books what follows the last entry — hard processes that never
// ran, per-core energy, the sink flush — and returns the strict abort's
// *EnvelopeError, if the cycle stopped on one. Its callers book the
// utility: finish from scratch, a Replayer from its record.
func (d *Dispatcher) close(st *cycleState) error {
	res := st.res
	res.FinalNode = int(st.node)
	appendUnranHard(res, d.hardIDs)

	// Active energy is per-core busy time × active power; idle energy the
	// rest of the period × idle power (clamped at zero for out-of-model
	// cycles that overran it). On the canonical platform (power 1/0)
	// Energy equals the core's busy time.
	res.CoreBusy = resize(res.CoreBusy, len(st.busy))
	res.CoreEnergy = resize(res.CoreEnergy, len(st.busy))
	var eact, eidl float64
	period := d.tree.App.Period()
	for c, b := range st.busy {
		ea := float64(b) * d.kern.cores[c].PowerActive
		ei := float64(max(period-b, 0)) * d.kern.cores[c].PowerIdle
		res.CoreBusy[c] = b
		res.CoreEnergy[c] = ea + ei
		eact += ea
		eidl += ei
	}
	res.EnergyActive, res.EnergyIdle, res.Energy = eact, eidl, eact+eidl

	if d.sink != nil {
		d.flush(st)
	}
	if st.after == actStop {
		// Copying the event record allocates, but strict callers are
		// aborting the cycle anyway — the 0-alloc guarantee covers
		// in-model cycles.
		return &EnvelopeError{Policy: PolicyStrict, Events: append([]ViolationEvent(nil), res.Violations...)}
	}
	return nil
}

// flush reports the cycle to the live sink and zeroes the guard-depth
// tally (pooled state must come back clean). Every counter and the
// overrun histogram derive from the Result, so a cycle a Replayer resumed
// mid-way reports what a full run would; the per-entry histograms (guard
// depth, hard slack, switch node) count only the entries that executed.
func (d *Dispatcher) flush(st *cycleState) {
	res, sink := st.res, d.sink
	var kinds [TimeRegression + 1]int64
	for _, v := range res.Violations {
		kinds[v.Kind]++
		if v.Kind == WCETOverrun {
			sink.Observe(obs.EnvelopeOverrunMagnitude, int64(v.Magnitude))
		}
	}
	sink.Add(obs.DispatchCycles, 1)
	sink.Add(obs.DispatchEnergy, int64(res.Energy))
	sink.Observe(obs.DispatchCycleEnergy, int64(res.Energy))
	sink.Add(obs.DispatchSwitches, int64(res.Switches))
	sink.Add(obs.DispatchFaultsAbsorbed, int64(res.Recoveries))
	sink.Add(obs.DispatchFaultsAbandoned, st.abandoned)
	if res.Fallbacks != 0 {
		sink.Add(obs.DispatchGuardFallbacks, int64(res.Fallbacks))
	}
	if res.Degraded {
		sink.Add(obs.EnvelopeSheds, 1)
	}
	for kind, c := range [...]obs.Counter{
		WCETOverrun:     obs.EnvelopeOverruns,
		ExtraFault:      obs.EnvelopeExtraFaults,
		BudgetExhausted: obs.EnvelopeBudgetExhausted,
		TimeRegression:  obs.EnvelopeTimeRegressions,
	} {
		if kinds[kind] != 0 {
			sink.Add(c, kinds[kind])
		}
	}
	for i, c := range st.depthCounts {
		if c != 0 {
			sink.ObserveN(obs.DispatchGuardDepth, int64(i), int64(c))
			st.depthCounts[i] = 0
		}
	}
}

// cycleUtility is the stale-value accounting of a finished cycle (§2.1):
// Σ α_i·U_i(t_i) over the soft processes that completed, in ascending ID
// order, with α from app.StaleCoefficients over the realised outcomes.
// Dispatcher.finish, Kernel.Finish and a recording Replayer share it;
// st.status and st.alpha are its scratch. A non-nil terms receives each
// completed soft process's term by soft index.
func (k *kernel) cycleUtility(app *model.Application, st *cycleState, terms []float64) float64 {
	outcomes, done, status := st.res.Outcomes, st.res.CompletionTimes, st.status
	for id, o := range outcomes {
		if o == Completed {
			status[id] = utility.Executed
		} else {
			status[id] = utility.Dropped
		}
	}
	alpha := app.StaleCoefficients(st.alpha, status)
	st.alpha = alpha
	var total float64
	for i, id := range k.soft {
		if outcomes[id] != Completed {
			continue
		}
		t := k.term(alpha[id], id, done[id])
		if terms != nil {
			terms[i] = t
		}
		total += t
	}
	return total
}

// term is soft process id's utility term α·U(t). The conversion rounds
// the product on its own: the Go spec lets a compiler fuse a product
// into the sum it feeds (an FMA on arm64 or GOAMD64=v3), and a fused sum
// would differ in the last bit from one over terms a Replayer cached.
func (k *kernel) term(alpha float64, id model.ProcessID, t model.Time) float64 {
	// A validated application gives every soft process a utility.
	return float64(alpha * k.procs[id].Utility.Value(t))
}
