package core

import (
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
// The evaluator remembers its last evaluation and the window of start
// times over which that value cannot change (see from), so it is stateful:
// each candidate builds its own, and one must not be shared between
// goroutines.
type suffixEval struct {
	// ents[i] is what an evaluation reads of entries[i] in place of the
	// process.
	ents []evalEntry
	// durs[j*len(ents)+i] is the duration of entries[i] in quadrature
	// sample j; there are rows samples.
	durs []Time
	rows int
	// val is the last evaluation, exact for every start time in the
	// closed window [winLo, winHi] (empty before the first).
	winLo, winHi Time
	val          float64
}

// evalEntry is one suffix entry as the evaluator reads it: its release,
// its utility function with the function's constancy intervals (nil for a
// hard process) and its stale coefficient.
type evalEntry struct {
	release Time
	util    spanFunc
	alpha   float64
}

// spanFunc is a utility function that reports where its value is
// constant; pointSpan adapts one that cannot, with zero-width intervals.
type spanFunc interface {
	utility.Function
	utility.Spanner
}

type pointSpan struct{ utility.Function }

func (pointSpan) Span(t Time) (lo, hi Time) { return t, t }

// newSuffixEval prepares an evaluator for the given suffix entries. dropped
// marks the processes assumed dropped in this scenario (everything not
// dropped is assumed to execute, which is exactly the assumption under
// which the suffix was synthesised). scenarios selects the quadrature size
// (1 = paper-faithful average execution times).
func newSuffixEval(app *model.Application, entries []schedule.Entry, dropped []bool, scenarios int) *suffixEval {
	if scenarios < 1 {
		scenarios = 1
	}
	alpha := staleAlpha(app, dropped)
	n := len(entries)
	e := &suffixEval{
		ents:  make([]evalEntry, n),
		durs:  make([]Time, scenarios*n),
		rows:  scenarios,
		winLo: 1, // empty window: nothing is cached yet
	}
	// The rows are wall-clock attempt times, so the recovery model's
	// per-attempt checkpoint overheads are baked in at construction
	// (identity under re-execution and restart) and the evaluation loop
	// stays a plain sum.
	rec := app.Recovery()
	for i, en := range entries {
		p := app.ProcRef(en.Proc)
		ent := &e.ents[i]
		ent.release = p.Release
		if p.Kind == model.Soft {
			u := app.UtilityOf(en.Proc)
			if sf, ok := u.(spanFunc); ok {
				ent.util = sf
			} else {
				ent.util = pointSpan{u}
			}
			ent.alpha = alpha[en.Proc]
		}
		if scenarios == 1 {
			e.durs[i] = rec.AttemptTime(p.AET)
			continue
		}
		span := float64(p.WCET - p.BCET)
		for j := 0; j < scenarios; j++ {
			e.durs[j*n+i] = rec.AttemptTime(p.BCET + Time(quadFrac(j, scenarios, en.Proc)*span+0.5))
		}
	}
	return e
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
// as the window [winLo, winHi]; a later probe inside it sums the very same
// terms in the same order, so it returns the cached value, bit for bit
// what a fresh walk gives.
func (e *suffixEval) from(t Time) float64 {
	if e.winLo <= t && t <= e.winHi {
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
			total += en.alpha * en.util.Value(now)
			if back > 0 || fwd > 0 {
				lo, hi := en.util.Span(now)
				back = min(back, now-lo)
				fwd = min(fwd, hi-now)
			}
		}
	}
	e.val = total / float64(e.rows)
	e.winLo, e.winHi = t-back, t+fwd
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

// partition sweeps completion times t ∈ [lo, hi] and returns the maximal
// intervals where diff(t) > 0, together with the mean diff(t) over the
// winning probes of each interval. diff is the child's expected utility
// minus the parent's, so a probe wins exactly when the child is strictly
// better (for finite doubles, c−p > 0 iff c > p) and its gain is the
// difference itself: one evaluation per probe serves both. The sweep uses
// at most samples probe points; boundaries between differing neighbouring
// probes are refined by bisection, so guards are exact when the winning
// set is a union of intervals wider than the probe stride and
// conservative otherwise.
func partition(lo, hi Time, samples int, diff func(Time) float64) []interval {
	if hi < lo {
		return nil
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
	var out []interval
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
// returns the arcs to attach. kRem is the fault budget of the child's
// suffix analysis, run in the scratch prefix safe; the parent evaluator
// and child evaluator carry the dropped-set assumptions of their
// respective scenarios.
func partitionChild(app *model.Application, safe *schedule.Prefix, parentEval, childEval *suffixEval,
	childSuffix []schedule.Entry, lo, hi Time, kRem, samples int) []interval {

	safeMax := maxSafeStart(safe, app, childSuffix, lo, hi, kRem)
	if safeMax < lo {
		return nil
	}
	// Beyond both horizons the utilities are flat; no need to sweep on.
	if h := maxTime(parentEval.horizon(), childEval.horizon()); hi > h && h >= lo {
		hi = h
	}
	if hi > safeMax {
		hi = safeMax
	}
	return partition(lo, hi, samples, func(t Time) float64 {
		return childEval.from(t) - parentEval.from(t)
	})
}

func maxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
