package core

import (
	"errors"
	"fmt"
	"slices"

	"ftsched/internal/model"
	"ftsched/internal/schedule"
	"ftsched/internal/utility"
)

// Time re-exports the model time base.
type Time = model.Time

// ErrUnschedulable is returned when no f-schedule can guarantee the hard
// deadlines for the requested number of faults.
var ErrUnschedulable = fmt.Errorf("core: application is not schedulable")

// FTSS synthesises the root f-schedule for the application: a static
// schedule ordered by the list-scheduling heuristic of §5.2, with shared
// recovery slack sized for k = app.K() transient faults. Hard deadlines are
// guaranteed for the worst-case execution times; the process order (and the
// dropping decisions) maximise the expected utility for the average
// execution times.
func FTSS(app *model.Application) (*schedule.FSchedule, error) {
	entries, err := SuffixFTSSSet(app, model.NewProcSet(app.N()), model.NewProcSet(app.N()), 0, app.K())
	if err != nil {
		return nil, err
	}
	return &schedule.FSchedule{Entries: entries}, nil
}

// SuffixFTSS is SuffixFTSSSet with the executed and dropped processes
// given as ID lists, the form the online rescheduler observes.
func SuffixFTSS(app *model.Application, executed, dropped []model.ProcessID, start Time, kRemaining int) ([]schedule.Entry, error) {
	return SuffixFTSSSet(app, model.ProcSetOf(app.N(), executed), model.ProcSetOf(app.N(), dropped), start, kRemaining)
}

// SuffixFTSSSet completes a partially executed schedule: given the set of
// processes already executed or already dropped, the current time, and the
// remaining fault budget, it returns the f-schedule for the remaining
// processes. FTQS uses it to build the sub-schedules of the quasi-static
// tree; it is exported because it is also the natural building block for an
// (out-of-scope) fully online rescheduler, which the paper uses as the
// "ideal but too slow" comparison point.
func SuffixFTSSSet(app *model.Application, executed, dropped model.ProcSet, start Time, kRemaining int) ([]schedule.Entry, error) {
	st := newFTSSState(newFTSSTables(app))
	entries, err := st.run(executed, dropped, start, kRemaining)
	if err == errStuck {
		err = st.unschedulable()
	}
	return entries, err
}

// errStuck is run's report that no ready process can be placed. The stuck
// state stays in the ftssState, and only callers that return the error
// diagnose it with unschedulable, so memoised suffix runs build no error.
var errStuck = errors.New("core: FTSS stuck")

// ftssTables are the per-process tables every FTSS run over one
// application reads instead of copying a model.Process per call: kind,
// release, aet (see aetOn), utility function and position in the
// topological order. They depend on the application alone, so FTQS builds
// them once per synthesis and shares them, read-only, between its workers.
type ftssTables struct {
	app     *model.Application
	kind    []model.Kind
	release []Time
	aet     []Time
	util    []utility.Function
	topoPos []int
}

func newFTSSTables(app *model.Application) *ftssTables {
	n := app.N()
	t := &ftssTables{
		app:     app,
		kind:    make([]model.Kind, n),
		release: make([]Time, n),
		aet:     make([]Time, n),
		util:    make([]utility.Function, n),
		topoPos: make([]int, n),
	}
	for i, id := range app.Topo() {
		t.topoPos[id] = i
	}
	for id := 0; id < n; id++ {
		pid := model.ProcessID(id)
		p := app.ProcRef(pid)
		t.kind[id] = p.Kind
		t.release[id] = p.Release
		t.aet[id] = app.Recovery().AttemptTime(t.rawAETOn(pid))
		t.util[id] = app.UtilityOf(pid)
	}
	return t
}

// ftssState carries the list-scheduler state of FTSS runs. Its n-sized
// tables are allocated once, by newFTSSState, and every run resets them in
// place, so a reused state (FTQS keeps one per worker) allocates only the
// entries a run returns. A state must not be shared between goroutines.
type ftssState struct {
	*ftssTables
	kRem  int  // faults still to tolerate
	start Time // absolute time at which the (suffix) schedule begins

	entries   []schedule.Entry // placed so far (suffix only)
	placed    schedule.Prefix  // worst-case analysis of the settled entries
	nowE      Time             // AET-based clock for utility projections
	scheduled []bool           // executed before start, or placed
	dropped   []bool
	ready     []model.ProcessID // the ready list R
	// soft lists the soft processes neither scheduled nor dropped, in ID
	// order: the processes softProjection projects.
	soft []model.ProcessID

	// hardPlaced counts the hard processes placed so far. The unscheduled
	// hard set changes only when it grows (hard processes are never
	// dropped), so softTail stays current while softTailAt equals it.
	hardPlaced, softTailAt int
	// drops counts the processes dropped so far. The stale coefficients
	// under the dropped set alone depend on nothing else, so baseAlpha
	// stays current while baseAlphaAt equals it.
	drops, baseAlphaAt int

	// Scratch reused by every call of every run.
	cand      schedule.Prefix       // S_iH analysis: placed copied, then P_i and the hard tail
	softTail  []schedule.Entry      // the hard tail every soft candidate shares; see sharedTail
	ownTail   []schedule.Entry      // a hard candidate's hard tail (it excludes the candidate)
	tailSet   []model.ProcessID     // hardTail's process set
	inSet     []bool                // hardTail's membership
	inTail    []bool                // hardTail's placed members
	dmod      []Time                // hardTail's modified deadlines
	status    []utility.StaleStatus // the dropped set as α statuses; see droppedAlpha
	alpha     []float64             // softProjection's coefficients with one more process dropped
	baseAlpha []float64             // coefficients under the dropped set alone; see droppedAlpha
	remaining []bool                // softProjection's unprojected soft processes
	blockers  []int                 // softProjection's count of remaining predecessors
	front     []model.ProcessID     // softProjection's unblocked remaining processes
	cones     [][]model.ProcessID   // cone(p), built on first use
	inCone    []bool                // cone's membership while it builds one
	sched     []model.ProcessID     // schedulableSet's result
	snapshot  []model.ProcessID     // determineDropping's copy of the ready list
	pending   []model.ProcessID     // forcedDropping's unscheduled processes
}

func newFTSSState(tab *ftssTables) *ftssState {
	n := tab.app.N()
	return &ftssState{
		ftssTables: tab,
		scheduled:  make([]bool, n),
		dropped:    make([]bool, n),
		inSet:      make([]bool, n),
		inTail:     make([]bool, n),
		dmod:       make([]Time, n),
		status:     make([]utility.StaleStatus, n),
		alpha:      make([]float64, n),
		baseAlpha:  make([]float64, n),
		remaining:  make([]bool, n),
		blockers:   make([]int, n),
		cones:      make([][]model.ProcessID, n),
		inCone:     make([]bool, n),
	}
}

// reset prepares the state for a run after the executed and dropped
// processes, from start with kRem faults to tolerate. Scratch that every
// use overwrites before reading is left as it is.
func (st *ftssState) reset(executed, dropped model.ProcSet, start Time, kRem int) {
	st.kRem, st.start, st.nowE = kRem, start, start
	st.entries = st.entries[:0]
	st.hardPlaced, st.softTailAt = 0, -1
	st.drops, st.baseAlphaAt = 0, -1
	for id := range st.scheduled {
		pid := model.ProcessID(id)
		st.scheduled[id] = executed.Has(pid)
		st.dropped[id] = dropped.Has(pid)
	}
	st.ready, st.soft = st.ready[:0], st.soft[:0]
	for id := range st.scheduled {
		pid := model.ProcessID(id)
		if st.scheduled[id] || st.dropped[id] {
			continue
		}
		if st.predsDone(pid) {
			st.ready = append(st.ready, pid)
		}
		if st.kind[id] == model.Soft {
			st.soft = append(st.soft, pid)
		}
	}
	st.placed.Reset(st.app, start, kRem)
}

// aetOn returns the expected fault-free attempt time of p on its primary
// core. The utility projections keep a scalar expected-time clock even on
// mapped platforms — the projection is a ranking heuristic, and the exact
// mapped timeline is enforced separately by the schedule.Prefix analysis
// every candidate passes — but the durations feeding the clock are
// speed-scaled and inflated by the recovery model's per-attempt checkpoint
// overheads, so low-power-core and checkpoint-heavy placements are priced
// honestly. Identity on the canonical platform under re-execution.
func (st *ftssState) aetOn(p model.ProcessID) Time { return st.aet[p] }

// rawAETOn is the speed-scaled expected execution time on the primary
// core, without attempt overheads (the quantity checkpoint segment
// geometry is computed over).
func (t *ftssTables) rawAETOn(p model.ProcessID) Time {
	return t.app.Platform().Scale(t.app.CoreOf(p), t.app.ProcRef(p).AET)
}

func (st *ftssState) predsDone(p model.ProcessID) bool {
	for _, q := range st.app.Preds(p) {
		if !st.scheduled[q] && !st.dropped[q] {
			return false
		}
	}
	return true
}

// run executes the FTSS main loop (paper Fig. 8) after the executed and
// dropped processes, from start with kRem faults to tolerate, and returns
// a fresh slice of the placed entries, or errStuck when no ready process
// can be placed.
func (st *ftssState) run(executed, dropped model.ProcSet, start Time, kRem int) ([]schedule.Entry, error) {
	st.reset(executed, dropped, start, kRem)
	for len(st.ready) > 0 {
		st.determineDropping()
		if len(st.ready) == 0 {
			continue // everything ready was dropped; successors now ready
		}
		if err := st.placeNext(); err != nil {
			return nil, err
		}
	}
	// Defensive final verification; the per-placement checks imply it.
	st.cand.Reset(st.app, st.start, st.kRem)
	for _, e := range st.entries {
		st.cand.Extend(e)
	}
	if err := st.cand.Err(); err != nil {
		return nil, unschedulableFrom(err)
	}
	if len(st.entries) == 0 {
		return nil, nil
	}
	return slices.Clone(st.entries), nil
}

// placeNext implements lines 4-15 for the current ready list: it places
// the best process of the schedulable set, first making room by stripping
// recoveries and forced dropping while that set is empty. It places
// nothing when forced dropping empties the ready list, and returns
// errStuck when nothing is schedulable and nothing can be dropped.
func (st *ftssState) placeNext() error {
	sched := st.schedulableSet()
	for len(sched) == 0 {
		// Sacrificing a re-execution of an already placed soft process
		// only costs fault-scenario utility, whereas dropping a ready
		// process costs its whole utility; try the cheap option first
		// (cf. the paper's Fig. 4 discussion, where P3's re-execution is
		// dropped so that P2 can execute).
		if !st.stripOneRecovery() {
			if !st.forcedDropping() {
				return errStuck
			}
			if len(st.ready) == 0 {
				return nil
			}
		}
		sched = st.schedulableSet()
	}
	st.place(st.bestProcess(sched))
	return nil
}

// unschedulable diagnoses why the run is stuck: the placed entries plus
// the bare hard tail is the least-constrained continuation, so its
// verdict names the offending process; if that passes, the conflict is
// per-candidate and the first failing S_iH is reported instead.
func (st *ftssState) unschedulable() error {
	if err := st.candidateErr(model.NoProcess, 0, st.sharedTail()); err != nil {
		return unschedulableFrom(err)
	}
	for _, p := range st.ready {
		if err := st.candidateErr(p, st.recoveriesFor(p), st.tailFor(p)); err != nil {
			return unschedulableFrom(err)
		}
	}
	return ErrUnschedulable
}

// removeReady deletes p from the ready list.
func (st *ftssState) removeReady(p model.ProcessID) { st.ready = remove(st.ready, p) }

// remove deletes p from list, keeping the order of the rest.
func remove(list []model.ProcessID, p model.ProcessID) []model.ProcessID {
	if i := slices.Index(list, p); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// addReadySuccessors inserts the successors of p that became ready.
func (st *ftssState) addReadySuccessors(p model.ProcessID) {
	for _, s := range st.app.Succs(p) {
		if !st.scheduled[s] && !st.dropped[s] && st.predsDone(s) {
			st.ready = append(st.ready, s)
		}
	}
	// Keep the ready list deterministic.
	slices.Sort(st.ready)
}

// drop marks a soft process as dropped and promotes its ready successors.
func (st *ftssState) drop(p model.ProcessID) {
	st.dropped[p] = true
	st.drops++
	st.soft = remove(st.soft, p)
	st.removeReady(p)
	st.addReadySuccessors(p)
}

// determineDropping implements line 3 of FTSS: every ready soft process is
// evaluated with the dropping heuristic and dropped when executing it does
// not increase the projected utility. The heuristic builds two evaluation
// schedules over the unscheduled soft processes, S_i' (with P_i) and S_i”
// (without), and compares their projected utilities (paper §5.2: "In
// schedule S_i”, if U(S_i') <= U(S_i”), P_i is dropped and the stale value
// is passed instead"). S_i' keeps every candidate, so it is the same
// schedule for all of them and changes only when a process is dropped.
func (st *ftssState) determineDropping() {
	// Iterate over a snapshot: drops mutate the ready list.
	st.snapshot = append(st.snapshot[:0], st.ready...)
	with, withAt := 0.0, -1
	for _, p := range st.snapshot {
		if st.kind[p] != model.Soft || st.dropped[p] {
			continue
		}
		if withAt != st.drops {
			with, withAt = st.softProjection(model.NoProcess), st.drops
		}
		if with <= st.softProjection(p) {
			st.drop(p)
		}
	}
}

// softProjection estimates the utility obtainable from the still
// unscheduled soft processes, assuming they run back-to-back from the
// current expected time, with excluded (if any) additionally dropped.
// The order is chosen greedily by utility density (the same MU measure the
// main loop uses), respecting precedence within the projected set, so the
// estimate reflects the best order the scheduler could realistically pick —
// a plain topological order would systematically undervalue keeping a
// process whose siblings are more urgent. Stale-value coefficients reflect
// the combined dropped set.
//
// The projected set comes from the compact list st.soft, and each greedy
// round scans only its unblocked members. The pick is the maximum of
// (density, then lowest ID), a strict total order, so it does not depend
// on the order the members are scanned in.
func (st *ftssState) softProjection(excluded model.ProcessID) float64 {
	app := st.app
	// Stale coefficients: everything that is not dropped is assumed to
	// execute.
	alpha := st.droppedAlpha()
	if excluded != model.NoProcess {
		alpha = st.alphaWithout(excluded)
	}
	// rolloutProjection marks a listed process scheduled for the call.
	for _, id := range st.soft {
		st.remaining[id] = id != excluded && !st.scheduled[id]
	}
	// A remaining process is blocked while any predecessor remains.
	front := st.front[:0]
	for _, id := range st.soft {
		if !st.remaining[id] {
			continue
		}
		b := 0
		for _, q := range app.Preds(id) {
			if st.remaining[q] {
				b++
			}
		}
		st.blockers[id] = b
		if b == 0 {
			front = append(front, id)
		}
	}
	now := st.nowE
	var total float64
	for len(front) > 0 {
		at := -1
		var bestDensity, bestUtil float64
		var bestDone Time
		for i, pid := range front {
			s := now
			if st.release[pid] > s {
				s = st.release[pid]
			}
			aet := st.aet[pid]
			done := s + aet
			u := alpha[pid] * st.util[pid].Value(done)
			density := u
			if aet > 0 {
				density /= float64(aet)
			}
			if at < 0 || density > bestDensity ||
				(density == bestDensity && pid < front[at]) {
				at, bestDensity, bestUtil, bestDone = i, density, u, done
			}
		}
		best := front[at]
		front[at] = front[len(front)-1]
		front = front[:len(front)-1]
		st.remaining[best] = false
		for _, sc := range app.Succs(best) {
			if st.remaining[sc] {
				if st.blockers[sc]--; st.blockers[sc] == 0 {
					front = append(front, sc)
				}
			}
		}
		now = bestDone
		total += bestUtil
	}
	st.front = front
	return total
}

// droppedAlpha returns the stale coefficients under the assumption that
// every process outside the dropped set executes, recomputed only after a
// drop, and leaves st.status holding that dropped set. The slice is
// overwritten by nothing else, so it stays valid across softProjection
// calls.
func (st *ftssState) droppedAlpha() []float64 {
	if st.baseAlphaAt != st.drops {
		for id, d := range st.dropped {
			st.status[id] = utility.Executed
			if d {
				st.status[id] = utility.Dropped
			}
		}
		st.app.StaleCoefficients(st.baseAlpha, st.status)
		st.baseAlphaAt = st.drops
	}
	return st.baseAlpha
}

// alphaWithout returns, in st.alpha, the stale coefficients under the
// dropped set with p dropped too: droppedAlpha with the recurrence rerun
// over p's cone only. No coefficient outside the cone depends on p, so
// the result is bit for bit a full recomputation.
func (st *ftssState) alphaWithout(p model.ProcessID) []float64 {
	copy(st.alpha, st.droppedAlpha())
	was := st.status[p]
	st.status[p] = utility.Dropped
	st.app.UpdateStaleCoefficients(st.alpha, st.cone(p), st.status)
	st.status[p] = was
	return st.alpha
}

// cone returns p followed by its descendants, in topological order: the
// processes whose stale coefficient can depend on p's status. It depends
// on the application alone and is built on first use.
func (st *ftssState) cone(p model.ProcessID) []model.ProcessID {
	if c := st.cones[p]; c != nil {
		return c
	}
	topo := st.app.Topo()
	c := []model.ProcessID{p}
	st.inCone[p] = true
	// Descendants follow p in the topological order, and each has a
	// predecessor in the cone.
	for _, q := range topo[st.topoPos[p]+1:] {
		for _, j := range st.app.Preds(q) {
			if st.inCone[j] {
				st.inCone[q] = true
				c = append(c, q)
				break
			}
		}
	}
	for _, q := range c {
		st.inCone[q] = false
	}
	st.cones[p] = c
	return c
}

// schedulableSet implements GetSchedulable (line 4): the subset A of the
// ready list whose members lead to a schedulable solution. For each ready
// process P_i, the shortest valid schedule S_iH containing P_i and all
// unscheduled hard processes (every other soft process dropped) is checked
// against the hard deadlines and the period, with the remaining fault
// budget. The result is scratch, valid until the next call.
func (st *ftssState) schedulableSet() []model.ProcessID {
	st.sched = st.sched[:0]
	for _, p := range st.ready {
		if st.fits(p, st.recoveriesFor(p), st.tailFor(p)) {
			st.sched = append(st.sched, p)
		}
	}
	return st.sched
}

// tailFor returns the hard tail of ready candidate p's S_iH: the shared
// tail for a soft candidate, which the hard set never contains, and the
// shared tail without p for a hard one.
//
// The second is exactly hardTail's walk over the set without p. A ready p
// has no predecessor in the set, so removing it changes no modified
// deadline d′. Every process s that p's removal frees has the edge p→s in
// the set, so d′(p) ≤ d′(s) − WCET(s) < d′(s) (Validate enforces WCET > 0):
// none of them can win a step the walk with p gave to a process picked
// before p, since p was ready and lost those steps. Once p is placed, the
// two walks see the same ready processes.
func (st *ftssState) tailFor(p model.ProcessID) []schedule.Entry {
	shared := st.sharedTail()
	if st.kind[p] != model.Hard {
		return shared
	}
	st.ownTail = st.ownTail[:0]
	for _, e := range shared {
		if e.Proc != p {
			st.ownTail = append(st.ownTail, e)
		}
	}
	return st.ownTail
}

// sharedTail returns the hard tail of every unscheduled hard process,
// recomputed only after a hard process has been placed.
func (st *ftssState) sharedTail() []schedule.Entry {
	if st.softTailAt != st.hardPlaced {
		st.softTail = st.hardTail(st.softTail)
		st.softTailAt = st.hardPlaced
	}
	return st.softTail
}

// fits reports whether placed + P_i(f) + tail — the schedule S_iH of the
// paper — is schedulable. The placed entries are copied from their
// analysed prefix, never re-walked, and the walk stops at the first
// violation, which extending never repairs.
func (st *ftssState) fits(p model.ProcessID, f int, tail []schedule.Entry) bool {
	st.placed.CopyInto(&st.cand)
	st.cand.Extend(schedule.Entry{Proc: p, Recoveries: f})
	return st.cand.Fits(tail)
}

// candidateErr is fits walked to the end, for diagnostics: the error
// names the constraint placed + P_i(f) + tail violates (P_i omitted when
// p is NoProcess), nil when there is none.
func (st *ftssState) candidateErr(p model.ProcessID, f int, tail []schedule.Entry) error {
	st.placed.CopyInto(&st.cand)
	if p != model.NoProcess {
		st.cand.Extend(schedule.Entry{Proc: p, Recoveries: f})
	}
	for _, e := range tail {
		st.cand.Extend(e)
	}
	return st.cand.Err()
}

// recoveriesFor returns the recovery budget a process receives when first
// placed: hard processes must tolerate every remaining fault; soft
// processes start without recoveries (they are added one by one afterwards,
// see addRecoverySlack).
func (st *ftssState) recoveriesFor(p model.ProcessID) int {
	if st.kind[p] == model.Hard {
		return st.kRem
	}
	return 0
}

// hardTail returns, in buf's storage, the unscheduled hard processes in a
// precedence-feasible earliest-deadline order,
// each with the full remaining recovery budget. Deadlines are first
// tightened along hard→hard edges within the set (Blazewicz/Chetto
// modification, d'_i = min(d_i, d'_s − wcet_s)) so that picking the
// ready process with the smallest modified deadline yields a
// feasibility-optimal order in the classical model; edges passing through
// soft processes impose nothing here because S_iH assumes every other
// soft process dropped (stale inputs).
func (st *ftssState) hardTail(buf []schedule.Entry) []schedule.Entry {
	app := st.app
	set := st.tailSet[:0]
	for id := range st.inSet {
		st.inSet[id] = !st.scheduled[id] && !st.dropped[id] && st.kind[id] == model.Hard
		st.inTail[id] = false
		if st.inSet[id] {
			set = append(set, model.ProcessID(id))
		}
	}
	st.tailSet = set
	tail := buf[:0]
	if len(set) == 0 {
		return tail
	}
	// Modified deadlines, reverse topological order.
	topo := app.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		pid := topo[i]
		if !st.inSet[pid] {
			continue
		}
		d := app.ProcRef(pid).Deadline
		for _, s := range app.Succs(pid) {
			if st.inSet[s] {
				if cand := st.dmod[s] - app.ProcRef(s).WCET; cand < d {
					d = cand
				}
			}
		}
		st.dmod[pid] = d
	}
	// Precedence-aware EDF: repeatedly take the ready process (all
	// in-set predecessors placed) with the smallest modified deadline.
	for len(tail) < len(set) {
		best := model.NoProcess
		for _, pid := range set {
			if st.inTail[pid] {
				continue
			}
			ready := true
			for _, q := range app.Preds(pid) {
				if st.inSet[q] && !st.inTail[q] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			if best == model.NoProcess ||
				st.dmod[pid] < st.dmod[best] ||
				(st.dmod[pid] == st.dmod[best] && pid < best) {
				best = pid
			}
		}
		if best == model.NoProcess {
			break // unreachable for a DAG; defensive
		}
		st.inTail[best] = true
		tail = append(tail, schedule.Entry{Proc: best, Recoveries: st.kRem})
	}
	return tail
}

// stripOneRecovery removes one re-execution from a placed soft entry to
// free shared recovery slack for processes that would otherwise be force-
// dropped. Among the placed soft entries with a recovery budget it picks
// the one whose single recovery occupies the most slack (largest wcet + µ),
// breaking ties towards the most recently placed entry, whose recovery was
// the most marginal decision. Returns false when no recovery is left to
// strip.
func (st *ftssState) stripOneRecovery() bool {
	best := -1
	var bestCost Time
	for i, e := range st.entries {
		if e.Recoveries == 0 || st.kind[e.Proc] != model.Soft {
			continue
		}
		cost := st.app.WorstRecoveryCost(e.Proc)
		if best < 0 || cost > bestCost || (cost == bestCost && i > best) {
			best, bestCost = i, cost
		}
	}
	if best < 0 {
		return false
	}
	st.entries[best].Recoveries--
	st.placed.Reset(st.app, st.start, st.kRem)
	for _, e := range st.entries {
		st.placed.Extend(e)
	}
	return true
}

// forcedDropping implements lines 5-9: when no ready process leads to a
// schedulable solution, the soft process whose removal costs the least
// utility is dropped. The paper removes from the ready list; when the
// ready list holds no soft process we extend the rule to any unscheduled
// soft process — a pending soft process can transitively block a hard
// process whose early position the schedulability analysis relies on
// (S_iH assumes all other soft processes dropped), and dropping it is the
// only move that restores consistency. In the limit every soft process is
// dropped and the hard-only schedule remains, so a hard-schedulable
// application can never be declared unschedulable here. Returns false when
// no soft process is left to sacrifice.
func (st *ftssState) forcedDropping() bool {
	// The cost of dropping p is the dropping heuristic's U(S_i') − U(S_i”)
	// (see determineDropping); S_i' is the same for every candidate.
	pick := func(candidates []model.ProcessID) model.ProcessID {
		best := model.NoProcess
		bestCost := 0.0
		with, haveWith := 0.0, false
		for _, p := range candidates {
			if st.kind[p] != model.Soft {
				continue
			}
			if !haveWith {
				with, haveWith = st.softProjection(model.NoProcess), true
			}
			cost := with - st.softProjection(p) // utility lost by dropping p
			if best == model.NoProcess || cost < bestCost ||
				(cost == bestCost && p < best) {
				best, bestCost = p, cost
			}
		}
		return best
	}
	if p := pick(st.ready); p != model.NoProcess {
		st.drop(p)
		return true
	}
	st.pending = st.pending[:0]
	for id := range st.scheduled {
		if !st.scheduled[id] && !st.dropped[id] {
			st.pending = append(st.pending, model.ProcessID(id))
		}
	}
	if p := pick(st.pending); p != model.NoProcess {
		st.drop(p)
		return true
	}
	return false
}

// bestProcess implements SoftPriority + GetBestProcess (lines 11-12): the
// schedulable soft process with the highest priority, or — when the ready
// list holds no soft process — the schedulable hard process with the
// earliest deadline.
//
// The priority is a one-step rollout of the scheduler's own greedy
// projection: candidate p scores the utility of "p now, then the best
// greedy continuation of the remaining soft processes". The paper's MU
// function (after Cortés et al. [3], not reproduced there) is a
// utility-density measure; the same density measure orders the greedy
// continuations inside softProjection, and the rollout on top of it scores
// slightly better against the exact optimum (internal/optimal) than
// ranking by density directly.
func (st *ftssState) bestProcess(sched []model.ProcessID) model.ProcessID {
	bestSoft := model.NoProcess
	bestScore := 0.0
	// The dropped set does not change while candidates are scored, so
	// alpha stays valid under the score expression.
	alpha := st.droppedAlpha()
	for _, p := range sched {
		if st.kind[p] != model.Soft {
			continue
		}
		s := st.nowE
		if st.release[p] > s {
			s = st.release[p]
		}
		done := s + st.aetOn(p)
		score := alpha[p]*st.util[p].Value(done) +
			st.rolloutProjection(done, p)
		if bestSoft == model.NoProcess || score > bestScore ||
			(score == bestScore && p < bestSoft) {
			bestSoft, bestScore = p, score
		}
	}
	if bestSoft != model.NoProcess {
		return bestSoft
	}
	bestHard := model.NoProcess
	for _, p := range sched {
		if st.kind[p] != model.Hard {
			continue
		}
		if bestHard == model.NoProcess ||
			st.app.ProcRef(p).Deadline < st.app.ProcRef(bestHard).Deadline {
			bestHard = p
		}
	}
	return bestHard
}

// rolloutProjection estimates the utility of the unscheduled soft
// processes other than placed, projected greedily from time t — the
// continuation value of scheduling placed first.
func (st *ftssState) rolloutProjection(t Time, placed model.ProcessID) float64 {
	savedNow := st.nowE
	savedSched := st.scheduled[placed]
	st.nowE = t
	st.scheduled[placed] = true
	total := st.softProjection(model.NoProcess)
	st.nowE = savedNow
	st.scheduled[placed] = savedSched
	return total
}

// place schedules p at the current position, assigns its recovery slack and
// promotes its successors (lines 13-15).
func (st *ftssState) place(p model.ProcessID) {
	st.entries = append(st.entries, schedule.Entry{Proc: p, Recoveries: st.recoveriesFor(p)})
	st.scheduled[p] = true
	st.removeReady(p)
	if st.kind[p] == model.Soft {
		st.soft = remove(st.soft, p)
	}

	s := st.nowE
	if st.release[p] > s {
		s = st.release[p]
	}
	st.nowE = s + st.aetOn(p)

	if st.kind[p] == model.Soft {
		st.addRecoverySlack(len(st.entries) - 1)
	} else {
		st.hardPlaced++
	}
	st.placed.Extend(st.entries[len(st.entries)-1])
	st.addReadySuccessors(p)
}

// addRecoverySlack implements line 14 for soft processes: re-executions are
// added one by one while (a) the schedule including all unscheduled hard
// processes stays schedulable and (b) the re-execution survives the
// dropping heuristic — recovering the process in its fault scenario must be
// worth more than abandoning it and letting the remaining soft processes
// start earlier. The entry at idx is the last one, not yet in st.placed,
// so each budget is checked as placed + entry + hard tail.
func (st *ftssState) addRecoverySlack(idx int) {
	p := st.entries[idx].Proc
	for f := 1; f <= st.kRem; f++ {
		if !st.fits(p, f, st.sharedTail()) || !st.recoveryBeneficial(p, f) {
			return
		}
		st.entries[idx].Recoveries = f
	}
}

// recoveryBeneficial compares, in the scenario where p's execution is hit
// by its f-th fault, the projected utility of recovering p against the
// projected utility of dropping it (the failed attempts' time is spent
// either way; the recovery additionally costs the per-fault overhead plus
// another re-run under the application's recovery model).
func (st *ftssState) recoveryBeneficial(p model.ProcessID, f int) bool {
	app := st.app
	rec := app.Recovery()
	// Time at which recovery from the f-th fault would begin: the process
	// started at nowE - attempt time (it was just placed), ran its primary
	// attempt plus f-1 recovery re-runs, each followed by the per-fault
	// overhead (µ, restart latency, or rollback cost). Re-execution and
	// restart re-run the whole expected duration, a checkpoint rollback
	// only the final segment; recovery re-runs take no checkpoints, so no
	// attempt inflation applies.
	atP := st.aetOn(p)
	oh := app.RecoveryOverhead(p)
	rerun := rec.ResumeTime(app.Platform().Scale(app.RerunCoreOf(p), app.ProcRef(p).AET))
	startP := st.nowE - atP
	failed := startP + atP + oh + Time(f-1)*(rerun+oh)
	// Option A: recover; p completes at failed + rerun. Option B's
	// tailProjection computes its coefficients into st.alpha, not
	// withAlpha.
	withAlpha := st.droppedAlpha()
	doneAt := failed + rerun
	utilWith := withAlpha[p]*st.util[p].Value(doneAt) + st.tailProjection(doneAt, model.NoProcess)
	// Option B: abandon p (drop it); the rest starts at failed - overhead
	// (no recovery overhead is paid for a process that is not recovered).
	utilWithout := st.tailProjection(failed-oh, p)
	return utilWith > utilWithout
}

// tailProjection estimates the utility of the unscheduled soft processes
// from a given start time, with extraDropped additionally dropped.
func (st *ftssState) tailProjection(from Time, extraDropped model.ProcessID) float64 {
	saved := st.nowE
	st.nowE = from
	total := st.softProjection(extraDropped)
	st.nowE = saved
	return total
}
