package schedule

import "ftsched/internal/model"

// timeline is the no-fault clock of a list schedule. On one core each
// entry starts at the max of the core's ready time and its release; on a
// multi-core platform it also waits for the finishes of its placed
// predecessors (cross-core precedence), and runs for its speed-scaled
// duration on its primary core. On a single core done is nil: the core's
// ready time already dominates every placed predecessor's finish.
type timeline struct {
	plat *model.Platform
	rec  model.RecoveryModel
	// ready[c] is the time core c becomes free.
	ready []Time
	// done[q] is the finish of placed process q plus one, zero while q
	// is unplaced. Starts are never negative (releases are not), so an
	// unplaced predecessor never delays anything.
	done []Time
	// makespan is the running maximum of the finishes.
	makespan Time
}

// reset empties the timeline for a schedule starting at start, reusing
// its slices when they are large enough.
func (t *timeline) reset(app *model.Application, start Time) {
	t.plat = app.Platform()
	t.rec = app.Recovery()
	t.ready = resize(t.ready, t.plat.NCores())
	for c := range t.ready {
		t.ready[c] = start
	}
	if t.plat.NCores() > 1 {
		t.done = resize(t.done, app.N())
		clear(t.done)
	} else {
		t.done = t.done[:0]
	}
	t.makespan = 0
}

// place runs process id for the nominal duration d and returns its start
// and finish. Fault-free attempts pay the recovery model's per-attempt
// cost: checkpointing inflates every execution by its checkpoint
// overheads, applied after speed scaling because checkpoint geometry lives
// in wall time on the executing core (identity for re-execution and
// restart).
func (t *timeline) place(app *model.Application, id model.ProcessID, release, d Time) (start, finish Time) {
	pc := app.CoreOf(id)
	return t.placeAttempt(app, id, pc, release, t.rec.AttemptTime(t.plat.Scale(pc, d)))
}

// placeAttempt runs process id on core pc for the wall-clock attempt time
// and returns its start and finish.
func (t *timeline) placeAttempt(app *model.Application, id model.ProcessID, pc model.CoreID, release, attempt Time) (start, finish Time) {
	start = t.ready[pc]
	if release > start {
		start = release
	}
	if len(t.done) > 0 {
		for _, q := range app.Preds(id) {
			if f := t.done[q] - 1; f > start {
				start = f
			}
		}
	}
	finish = start + attempt
	t.ready[pc] = finish
	if len(t.done) > 0 {
		t.done[id] = finish + 1
	}
	if finish > t.makespan {
		t.makespan = finish
	}
	return start, finish
}

// copyInto copies the timeline into dst, reusing dst's slices.
func (t *timeline) copyInto(dst *timeline) {
	dst.plat, dst.rec, dst.makespan = t.plat, t.rec, t.makespan
	dst.ready = append(dst.ready[:0], t.ready...)
	dst.done = append(dst.done[:0], t.done...)
}

// resize returns s with length n, reallocating only when its capacity is
// too small.
func resize(s []Time, n int) []Time {
	if cap(s) < n {
		return make([]Time, n)
	}
	return s[:n]
}

// Prefix is the worst-case analysis state of a list-schedule prefix: the
// WCET no-fault timeline (makespan, per-core ready times and, on a mapped
// platform, the finishes cross-core successors wait for), the k largest
// recovery units, and the first violated constraint. A recovery unit is
// one fault's worth of recovery: an entry with f_i recoveries contributes
// min(f_i, k) units of app.WorstRecoveryCost. The sum of the k largest
// units is the greedy shared-slack cost of the prefix, exactly, because
// times are integers.
//
// Extend appends one entry in O(k + |preds|) and CopyInto copies the state
// in O(k + cores), plus the n finish times on a multi-core platform; once
// Reset has sized a Prefix, neither allocates. Extend reads each entry's
// constants from the application's analysis rows
// (model.Application.Timings), which the application builds once and
// Reset only looks up, so neither a reused Prefix nor a one-shot analysis
// re-derives them. The zero value is ready for Reset. WorstCaseCompletions and CheckSchedulable are one walk over
// a Prefix, so every user of the shared-slack bound shares this one
// statement of it.
type Prefix struct {
	app  *model.Application
	rows []model.Timing // app.Timings()
	k    int
	n    int // entries extended
	tl   timeline
	// top holds the largest recovery units in descending order, at most
	// k of them; rec is their sum.
	top []Time
	rec Time
	// miss is the first hard deadline miss; miss.Proc is NoProcess while
	// every extended hard entry meets its deadline.
	miss UnschedulableError
}

// Reset empties p for a schedule whose first entry starts no earlier than
// start, with at most k faults still to come.
func (p *Prefix) Reset(app *model.Application, start Time, k int) {
	p.app, p.rows, p.k, p.n = app, app.Timings(), k, 0
	p.tl.reset(app, start)
	if k < 0 {
		k = 0
	}
	p.top = resize(p.top, k)[:0]
	p.rec = 0
	p.miss = UnschedulableError{Proc: model.NoProcess}
}

// CopyInto makes dst an independent copy of p, reusing dst's storage.
func (p *Prefix) CopyInto(dst *Prefix) {
	dst.app, dst.rows, dst.k, dst.n = p.app, p.rows, p.k, p.n
	p.tl.copyInto(&dst.tl)
	dst.top = append(resize(dst.top, cap(p.top))[:0], p.top...)
	dst.rec = p.rec
	dst.miss = p.miss
}

// Extend appends entry e and returns its no-fault WCET start and finish
// and its worst-case completion: the prefix makespan plus the worst
// allocation of the k faults over the prefix's recovery budgets.
func (p *Prefix) Extend(e Entry) (start, finish, worst Time) {
	r := &p.rows[e.Proc]
	start, finish = p.tl.placeAttempt(p.app, e.Proc, r.Core, r.Release, r.Attempt)
	if e.Recoveries > 0 {
		p.addUnits(r.Recovery, e.Recoveries)
	}
	p.n++
	worst = p.tl.makespan + p.rec
	if r.Hard && worst > r.Deadline && p.miss.Proc == model.NoProcess {
		p.miss = UnschedulableError{Proc: e.Proc, Completion: worst, Bound: r.Deadline}
	}
	return start, finish, worst
}

// addUnits merges n units of cost into the descending top-k list.
func (p *Prefix) addUnits(cost Time, n int) {
	at := len(p.top)
	for at > 0 && p.top[at-1] < cost {
		at--
	}
	if n > p.k-at {
		n = p.k - at
	}
	if n <= 0 {
		return
	}
	old := len(p.top)
	size := old + n
	if size > p.k {
		size = p.k
	}
	p.top = p.top[:size]
	// Shift the smaller units right by n; those pushed past k leave.
	for j := old - 1; j >= at; j-- {
		if j+n < size {
			p.top[j+n] = p.top[j]
		} else {
			p.rec -= p.top[j]
		}
	}
	for j := at; j < at+n; j++ {
		p.top[j] = cost
	}
	p.rec += Time(n) * cost
}

// Fits extends p by entries while it stays schedulable and reports
// whether it still is at the end. It stops at the first violation, which
// no further entry can repair, leaving p partly extended.
func (p *Prefix) Fits(entries []Entry) bool {
	for _, e := range entries {
		if p.Violated() {
			return false
		}
		p.Extend(e)
	}
	return !p.Violated()
}

// WorstCase returns the worst-case completion of the prefix's last entry:
// the no-fault makespan plus the shared-slack recovery cost.
func (p *Prefix) WorstCase() Time { return p.tl.makespan + p.rec }

// Violated reports whether the prefix already misses a hard deadline or
// overruns the period in the worst case. Extending never repairs a
// violation: worst-case completions only grow along the list.
func (p *Prefix) Violated() bool {
	return p.miss.Proc != model.NoProcess || (p.n > 0 && p.WorstCase() > p.app.Period())
}

// Err returns the constraint the prefix violates as an
// *UnschedulableError: the first hard deadline miss in list order, else
// the worst-case makespan overrunning the period; nil when neither.
func (p *Prefix) Err() error {
	if p.miss.Proc != model.NoProcess {
		miss := p.miss
		return &miss
	}
	if p.n > 0 && p.WorstCase() > p.app.Period() {
		return &UnschedulableError{Proc: model.NoProcess, Completion: p.WorstCase(), Bound: p.app.Period()}
	}
	return nil
}
