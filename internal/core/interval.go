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
type suffixEval struct {
	// release[i], util[i] and alpha[i] are entries[i]'s release, utility
	// function (nil for a hard process) and stale coefficient, read in
	// place of the process on every evaluation.
	release []Time
	util    []utility.Function
	alpha   []float64
	// durs[j][i] is the duration of entries[i] in quadrature sample j.
	durs [][]Time
}

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
	e := &suffixEval{
		release: make([]Time, len(entries)),
		util:    make([]utility.Function, len(entries)),
		alpha:   make([]float64, len(entries)),
	}
	for i, en := range entries {
		p := app.ProcRef(en.Proc)
		e.release[i] = p.Release
		if p.Kind == model.Soft {
			e.util[i] = app.UtilityOf(en.Proc)
			e.alpha[i] = alpha[en.Proc]
		}
	}
	// The rows are wall-clock attempt times, so the recovery model's
	// per-attempt checkpoint overheads are baked in at construction
	// (identity under re-execution and restart) and the evaluation loop
	// stays a plain sum.
	rec := app.Recovery()
	e.durs = make([][]Time, scenarios)
	for j := range e.durs {
		row := make([]Time, len(entries))
		for i, en := range entries {
			p := app.Proc(en.Proc)
			if scenarios == 1 {
				row[i] = rec.AttemptTime(p.AET)
				continue
			}
			row[i] = rec.AttemptTime(p.BCET + Time(quadFrac(j, scenarios, en.Proc)*float64(p.WCET-p.BCET)+0.5))
		}
		e.durs[j] = row
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
func (e *suffixEval) from(t Time) float64 {
	var total float64
	for _, row := range e.durs {
		now := t
		for i, d := range row {
			s := now
			if e.release[i] > s {
				s = e.release[i]
			}
			now = s + d
			if e.util[i] != nil {
				total += e.alpha[i] * e.util[i].Value(now)
			}
		}
	}
	return total / float64(len(e.durs))
}

// horizon returns the latest time at which the suffix utility can still
// change: past it, every utility function has gone flat.
func (e *suffixEval) horizon() Time {
	var h Time
	for _, u := range e.util {
		if u != nil && u.Horizon() > h {
			h = u.Horizon()
		}
	}
	return h
}

// maxSafeStart returns the largest start time t in [lo, hi] for which the
// suffix remains schedulable with k remaining faults, or lo-1 when even lo
// is unsafe. Schedulability is monotone in the start time (starting later
// never helps), so binary search applies.
func maxSafeStart(app *model.Application, entries []schedule.Entry, lo, hi Time, k int) Time {
	if !schedule.Schedulable(app, entries, lo, k) {
		return lo - 1
	}
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if schedule.Schedulable(app, entries, mid, k) {
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
// intervals where win(t) holds, together with the mean gain(t) over each
// interval. The sweep uses at most samples probe points; boundaries between
// differing neighbouring probes are refined by bisection on win, so guards
// are exact when win is a union of intervals wider than the probe stride
// and conservative otherwise.
func partition(lo, hi Time, samples int, win func(Time) bool, gain func(Time) float64) []interval {
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
	var probes []Time
	for t := lo; t <= hi; t += stride {
		probes = append(probes, t)
	}
	if probes[len(probes)-1] != hi {
		probes = append(probes, hi)
	}

	// refine finds the exact boundary between a winning and a losing
	// probe by bisection on win.
	refine := func(winT, loseT Time) Time {
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
			if win(mid) == win(winT) {
				winT = mid
			} else {
				loseT = mid
			}
		}
	}

	var out []interval
	var cur *interval
	var gainSum float64
	var gainN int
	flush := func() {
		if cur != nil {
			if gainN > 0 {
				cur.Gain = gainSum / float64(gainN)
			}
			out = append(out, *cur)
			cur = nil
			gainSum, gainN = 0, 0
		}
	}
	prevWin := false
	var prevT Time
	for i, t := range probes {
		w := win(t)
		switch {
		case w && cur == nil:
			start := t
			if i > 0 && !prevWin {
				start = refine(t, prevT)
			}
			cur = &interval{Lo: start, Hi: t}
			gainSum += gain(t)
			gainN++
		case w:
			cur.Hi = t
			gainSum += gain(t)
			gainN++
		case !w && cur != nil:
			cur.Hi = refine(prevT, t)
			flush()
		}
		prevWin, prevT = w, t
	}
	flush()
	return out
}

// partitionChild runs interval partitioning for one candidate child. It
// compares the parent's remaining entries (after pos) against the child's
// suffix for every completion time of the guarded entry in [lo, hi], and
// returns the arcs to attach. kRem is the fault budget of the child's
// suffix analysis; the parent evaluator and child evaluator carry the
// dropped-set assumptions of their respective scenarios.
func partitionChild(app *model.Application, parentEval, childEval *suffixEval,
	childSuffix []schedule.Entry, lo, hi Time, kRem, samples int) []interval {

	safeMax := maxSafeStart(app, childSuffix, lo, hi, kRem)
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
	win := func(t Time) bool { return childEval.from(t) > parentEval.from(t) }
	gainF := func(t Time) float64 { return childEval.from(t) - parentEval.from(t) }
	return partition(lo, hi, samples, win, gainF)
}

func maxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// dedupeSortArcs orders a node's arcs into the canonical order; it is the
// synthesis-side name for SortArcs.
func dedupeSortArcs(arcs []Arc) []Arc { return SortArcs(arcs) }
