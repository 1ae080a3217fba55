package core

import (
	"slices"

	"ftsched/internal/model"
	"ftsched/internal/schedule"
	"ftsched/internal/utility"
)

// This file implements interval partitioning (paper §5.1): for a candidate
// sub-schedule SS_i attached after process P_i of a parent schedule SS_P,
// all possible (integer) completion times of P_i are traced and the
// expected utilities produced by SS_P and SS_i are compared. The guard of
// the switch arc is the set of completion times where SS_i is both safe
// (hard deadlines hold with the remaining fault budget) and strictly
// better. Beyond the safety bound t_i^c the parent schedule must be kept.
//
// Every probe costs one evaluation of each suffix: partition receives the
// child-minus-parent difference, whose sign is the win test and whose
// value is the gain. Both evaluators keep a step window (see
// suffixEval.from), so a probe re-walks a suffix only when one of its
// utility terms can have changed since the last walk.

// suffixEval is a lightweight expected-utility evaluator for a fixed suffix
// under fixed stale-value assumptions. It exists because interval
// partitioning evaluates the same suffix at hundreds of start times; the
// stale coefficients depend only on the dropped set, so they are computed
// once.
//
// With scenarios == 1 the evaluator reproduces the paper's point estimate:
// every process takes exactly its average execution time. With
// scenarios > 1 it averages over a small deterministic quadrature of
// uniform execution times instead. The point estimate systematically
// overvalues switching near guard boundaries (the utility staircases make
// E[U(completion)] < U(E[completion])); the quadrature removes that bias.
// Crucially, the duration sample of a process depends only on the process
// and the sample index — common random numbers — so comparing two
// evaluators is a paired comparison with no sampling noise between them.
//
// The evaluator remembers every window of start times over which a walk's
// value cannot change (see from), so it is stateful and must not be shared
// between goroutines. Synthesis keeps one per worker for each role and
// resets it in place.
type suffixEval struct {
	// ents[i] is what an evaluation reads of entries[i] in place of the
	// process.
	ents []evalEntry
	// durs[j*len(ents)+i] is the duration of entries[i] in quadrature
	// sample j; there are rows samples.
	durs []Time
	rows int
	// val is the value of the window [winLo, winHi] last walked or
	// looked up (empty before the first).
	winLo, winHi Time
	val          float64
	// wins holds every window walked since the reset, sorted by start
	// and disjoint.
	wins []evalWindow
	// Scratch for the stale coefficients.
	status []utility.StaleStatus
	alpha  []float64
}

// evalWindow is a closed window of start times and the value of every
// walk that starts in it.
type evalWindow struct {
	lo, hi Time
	val    float64
}

// evalEntry is one suffix entry as the evaluator reads it: its release,
// its utility function with the function's constancy intervals (nil for a
// hard process) and its stale coefficient.
type evalEntry struct {
	release Time
	util    valueSpanner
	alpha   float64
}

// valueSpanner is a utility function read through one lookup per probe:
// its value at t and the interval around t on which that value holds
// (utility.Spanner's Span). *utility.Table has it fused; splitSpan and
// pointSpan adapt other functions.
type valueSpanner interface {
	ValueSpan(t Time) (v float64, lo, hi Time)
	Horizon() Time
}

// splitSpan adapts a Spanner without a fused lookup.
type splitSpan struct {
	utility.Function
	utility.Spanner
}

func (f splitSpan) ValueSpan(t Time) (v float64, lo, hi Time) {
	lo, hi = f.Span(t)
	return f.Value(t), lo, hi
}

// pointSpan adapts a function that cannot report where it is constant,
// with zero-width intervals.
type pointSpan struct{ utility.Function }

func (f pointSpan) ValueSpan(t Time) (v float64, lo, hi Time) { return f.Value(t), t, t }

// evalTables are the per-process facts every suffix evaluator of one
// application reads besides the release: the utility lookup (nil for a
// hard process) and the attempt time in every quadrature sample. They
// depend on the application and the quadrature size alone, so a synthesis
// builds them once and shares them, read-only, between its workers.
type evalTables struct {
	rows int
	util []valueSpanner
	// durs[p*rows+j] is process p's attempt time in sample j: wall-clock,
	// so the recovery model's per-attempt checkpoint overheads are baked
	// in (identity under re-execution and restart) and the evaluation
	// loop stays a plain sum.
	durs []Time
}

func newEvalTables(app *model.Application, scenarios int) *evalTables {
	if scenarios < 1 {
		scenarios = 1
	}
	n := app.N()
	t := &evalTables{
		rows: scenarios,
		util: make([]valueSpanner, n),
		durs: make([]Time, n*scenarios),
	}
	rec := app.Recovery()
	for id := range t.util {
		pid := model.ProcessID(id)
		p := app.ProcRef(pid)
		if p.Kind == model.Soft {
			u := app.UtilityOf(pid)
			if vs, ok := u.(valueSpanner); ok {
				t.util[id] = vs
			} else if sp, ok := u.(utility.Spanner); ok {
				t.util[id] = splitSpan{u, sp}
			} else {
				t.util[id] = pointSpan{u}
			}
		}
		d := t.durs[id*scenarios : (id+1)*scenarios]
		if scenarios == 1 {
			d[0] = rec.AttemptTime(p.AET)
			continue
		}
		span := float64(p.WCET - p.BCET)
		for j := range d {
			d[j] = rec.AttemptTime(p.BCET + Time(quadFrac(j, scenarios, pid)*span+0.5))
		}
	}
	return t
}

// newSuffixEval prepares an evaluator for the given suffix entries. dropped
// marks the processes assumed dropped in this scenario (everything not
// dropped is assumed to execute, which is exactly the assumption under
// which the suffix was synthesised). scenarios selects the quadrature size
// (1 = paper-faithful average execution times).
func newSuffixEval(app *model.Application, entries []schedule.Entry, dropped []bool, scenarios int) *suffixEval {
	e := new(suffixEval)
	e.reset(app, newEvalTables(app, scenarios), entries, dropped)
	return e
}

// reset points the evaluator at a new suffix and dropped set, reusing its
// storage, and forgets every window.
func (e *suffixEval) reset(app *model.Application, tab *evalTables, entries []schedule.Entry, dropped []bool) {
	e.status = resize(e.status, app.N())
	for i, d := range dropped {
		e.status[i] = utility.Executed
		if d {
			e.status[i] = utility.Dropped
		}
	}
	e.alpha = app.StaleCoefficients(e.alpha, e.status)
	n := len(entries)
	e.ents = resize(e.ents, n)
	e.rows = tab.rows
	e.durs = resize(e.durs, tab.rows*n)
	e.winLo, e.winHi = 1, 0 // empty window: nothing is cached yet
	e.wins = e.wins[:0]
	rows := app.Timings()
	for i, en := range entries {
		e.ents[i] = evalEntry{release: rows[en.Proc].Release, util: tab.util[en.Proc]}
		if e.ents[i].util != nil {
			e.ents[i].alpha = e.alpha[en.Proc]
		}
		for j, d := range tab.durs[int(en.Proc)*tab.rows : int(en.Proc+1)*tab.rows] {
			e.durs[j*n+i] = d
		}
	}
}

// resize returns s with length n, reallocating only when its capacity is
// too small.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// quadFrac returns the duration fraction of sample j for a process: a
// low-discrepancy stratified point, rotated per process by the golden
// ratio so durations decorrelate across processes while remaining
// identical for the same process in any evaluator.
func quadFrac(j, scenarios int, p model.ProcessID) float64 {
	const phi = 0.618033988749895
	f := (float64(j)+0.5)/float64(scenarios) + phi*float64(p+1)
	return f - float64(int(f))
}

// from returns the expected utility of the suffix when its first entry
// starts at time t (no further faults), averaged over the quadrature.
//
// A soft entry's completion in a row is max(t + A, B) for constants A and
// B of the row (B from the releases), so it never decreases in t and moves
// by at most |Δt|. Each term therefore keeps its value while t moves back
// by at most (completion − lo) or forward by at most (hi − completion),
// where [lo, hi] is the utility's Span at the completion.
// The walk records the narrowest such reach over every row and soft entry
// as the window [winLo, winHi]; a later probe inside any window walked
// since the reset sums the very same terms in the same order, so it
// returns the window's value, bit for bit what a fresh walk gives.
func (e *suffixEval) from(t Time) float64 {
	if e.winLo <= t && t <= e.winHi {
		return e.val
	}
	// The first window starting after t; the one before it is the only
	// one that can hold t.
	at, _ := slices.BinarySearchFunc(e.wins, t, func(w evalWindow, t Time) int {
		if w.lo <= t {
			return -1
		}
		return 1
	})
	if at > 0 && t <= e.wins[at-1].hi {
		w := e.wins[at-1]
		e.winLo, e.winHi, e.val = w.lo, w.hi, w.val
		return e.val
	}
	n := len(e.ents)
	back, fwd := utility.Infinity, utility.Infinity
	var total float64
	for r := 0; r < e.rows; r++ {
		now := t
		for i, d := range e.durs[r*n : (r+1)*n] {
			en := &e.ents[i]
			s := now
			if en.release > s {
				s = en.release
			}
			now = s + d
			if en.util == nil {
				continue
			}
			v, lo, hi := en.util.ValueSpan(now)
			total += en.alpha * v
			back = min(back, now-lo)
			fwd = min(fwd, hi-now)
		}
	}
	e.val = total / float64(e.rows)
	e.winLo, e.winHi = t-back, t+fwd
	// Clip the new window to the gap it starts in, keeping wins disjoint.
	w := evalWindow{lo: e.winLo, hi: e.winHi, val: e.val}
	if at > 0 {
		w.lo = max(w.lo, e.wins[at-1].hi+1)
	}
	if at < len(e.wins) {
		w.hi = min(w.hi, e.wins[at].lo-1)
	}
	e.wins = slices.Insert(e.wins, at, w)
	return e.val
}

// horizon returns the latest time at which the suffix utility can still
// change: past it, every utility function has gone flat.
func (e *suffixEval) horizon() Time {
	var h Time
	for _, en := range e.ents {
		if en.util != nil && en.util.Horizon() > h {
			h = en.util.Horizon()
		}
	}
	return h
}

// maxSafeStart returns the largest start time t in [lo, hi] for which the
// suffix remains schedulable with k remaining faults, or lo-1 when even lo
// is unsafe. Schedulability is monotone in the start time (starting later
// never helps), so binary search applies. Every probe analyses the suffix
// in p, reset in place.
func maxSafeStart(p *schedule.Prefix, app *model.Application, entries []schedule.Entry, lo, hi Time, k int) Time {
	safe := func(start Time) bool {
		p.Reset(app, start, k)
		return p.Fits(entries)
	}
	if !safe(lo) {
		return lo - 1
	}
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if safe(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// interval is a candidate guard [Lo, Hi] with its mean utility gain.
type interval struct {
	Lo, Hi Time
	Gain   float64
}

// partition sweeps completion times t ∈ [lo, hi] and appends to out the
// maximal intervals where diff(t) > 0, together with the mean diff(t) over the
// winning probes of each interval. diff is the child's expected utility
// minus the parent's, so a probe wins exactly when the child is strictly
// better (for finite doubles, c−p > 0 iff c > p) and its gain is the
// difference itself: one evaluation per probe serves both. The sweep uses
// at most samples probe points; boundaries between differing neighbouring
// probes are refined by bisection, so guards are exact when the winning
// set is a union of intervals wider than the probe stride and
// conservative otherwise.
func partition(out []interval, lo, hi Time, samples int, diff func(Time) float64) []interval {
	if hi < lo {
		return out
	}
	if samples < 2 {
		samples = 2
	}
	stride := (hi - lo) / Time(samples-1)
	if stride < 1 {
		stride = 1
	}
	// The probes are lo, lo+stride, … up to hi, and hi itself. cur is the
	// open interval while open holds.
	var cur interval
	open := false
	var gainSum float64
	var gainN int
	prevWin := false
	var prevT Time
	for t := lo; ; {
		d := diff(t)
		w := d > 0
		switch {
		case w && !open:
			start := t
			if t > lo && !prevWin {
				start = refine(t, prevT, diff)
			}
			cur, open = interval{Lo: start, Hi: t}, true
			gainSum, gainN = d, 1
		case w:
			cur.Hi = t
			gainSum += d
			gainN++
		case !w && open:
			cur.Hi = refine(prevT, t, diff)
			cur.Gain = gainSum / float64(gainN)
			out = append(out, cur)
			open = false
		}
		prevWin, prevT = w, t
		if t == hi {
			break
		}
		t = min(t+stride, hi)
	}
	if open {
		cur.Gain = gainSum / float64(gainN)
		out = append(out, cur)
	}
	return out
}

// refine finds the exact boundary between a winning probe winT and a
// losing probe loseT by bisection and returns the last winning time. winT
// wins throughout, so only the midpoint is evaluated.
func refine(winT, loseT Time, diff func(Time) float64) Time {
	for {
		var a, b Time
		if winT < loseT {
			a, b = winT, loseT
		} else {
			a, b = loseT, winT
		}
		if b-a <= 1 {
			return winT
		}
		mid := (a + b) / 2
		if diff(mid) > 0 {
			winT = mid
		} else {
			loseT = mid
		}
	}
}

// partitionChild runs interval partitioning for one candidate child. It
// compares the parent's remaining entries (after pos) against the child's
// suffix for every completion time of the guarded entry in [lo, hi], and
// appends the arcs to attach to out. kRem is the fault budget of the child's
// suffix analysis, run in the scratch prefix safe; the parent evaluator
// and child evaluator carry the dropped-set assumptions of their
// respective scenarios.
func partitionChild(out []interval, app *model.Application, safe *schedule.Prefix, parentEval, childEval *suffixEval,
	childSuffix []schedule.Entry, lo, hi Time, kRem, samples int) []interval {

	safeMax := maxSafeStart(safe, app, childSuffix, lo, hi, kRem)
	if safeMax < lo {
		return out
	}
	// Beyond both horizons the utilities are flat; no need to sweep on.
	if h := maxTime(parentEval.horizon(), childEval.horizon()); hi > h && h >= lo {
		hi = h
	}
	if hi > safeMax {
		hi = safeMax
	}
	return partition(out, lo, hi, samples, func(t Time) float64 {
		return childEval.from(t) - parentEval.from(t)
	})
}

func maxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
