package schedule

import (
	"cmp"
	"slices"

	"ftsched/internal/model"
)

// This file freezes the sort-based worst-case analysis that Prefix
// replaced, as an independent oracle for it: the no-fault timeline is
// re-simulated from scratch and the shared-slack recovery cost of every
// prefix is recomputed by sorting that prefix's recovery items. It is
// O(n² log n) per call and is only used by the tests.

// refRecoveryItem is one candidate consumer of the shared slack.
type refRecoveryItem struct {
	cost Time // worst-case cost of one recovery
	max  int  // f_i
}

// refWorstRecoveryCost returns the maximum total recovery time for at
// most k faults distributed over the items, each item taking at most
// item.max faults: greedy on descending cost.
func refWorstRecoveryCost(items []refRecoveryItem, k int) Time {
	slices.SortFunc(items, func(a, b refRecoveryItem) int { return cmp.Compare(b.cost, a.cost) })
	var total Time
	for _, it := range items {
		if k <= 0 {
			break
		}
		n := it.max
		if n > k {
			n = k
		}
		total += Time(n) * it.cost
		k -= n
	}
	return total
}

// refSequential is the WCET no-fault timeline: one core at speed 1 on the
// canonical platform, per-core ready times plus cross-core precedence on
// a mapped one.
func refSequential(app *model.Application, entries []Entry, start Time) ([]Time, []Time) {
	starts := make([]Time, len(entries))
	finishes := make([]Time, len(entries))
	plat := app.Platform()
	rec := app.Recovery()
	if plat.IsDefault() {
		now := start
		for i, e := range entries {
			p := app.Proc(e.Proc)
			s := now
			if p.Release > s {
				s = p.Release
			}
			starts[i] = s
			now = s + rec.AttemptTime(p.WCET)
			finishes[i] = now
		}
		return starts, finishes
	}
	ready := make([]Time, plat.NCores())
	for c := range ready {
		ready[c] = start
	}
	done := make([]Time, app.N())
	seen := make([]bool, app.N())
	for i, e := range entries {
		p := app.Proc(e.Proc)
		pc := app.CoreOf(e.Proc)
		s := ready[pc]
		if p.Release > s {
			s = p.Release
		}
		for _, q := range app.Preds(e.Proc) {
			if seen[q] && done[q] > s {
				s = done[q]
			}
		}
		starts[i] = s
		fin := s + rec.AttemptTime(plat.Scale(pc, p.WCET))
		ready[pc] = fin
		done[e.Proc] = fin
		seen[e.Proc] = true
		finishes[i] = fin
	}
	return starts, finishes
}

// refWorstCaseCompletions is WorstCaseCompletions as a from-scratch
// re-analysis of every prefix.
func refWorstCaseCompletions(app *model.Application, entries []Entry, start Time, k int) Completions {
	starts, finishes := refSequential(app, entries, start)
	wc := make([]Time, len(entries))
	items := make([]refRecoveryItem, 0, len(entries))
	var makespan Time
	for i, e := range entries {
		if e.Recoveries > 0 {
			items = append(items, refRecoveryItem{cost: app.WorstRecoveryCost(e.Proc), max: e.Recoveries})
		}
		if finishes[i] > makespan {
			makespan = finishes[i]
		}
		pref := make([]refRecoveryItem, len(items))
		copy(pref, items)
		wc[i] = makespan + refWorstRecoveryCost(pref, k)
	}
	return Completions{Start: starts, Finish: finishes, WorstCase: wc}
}

// refCheckSchedulable is CheckSchedulable over refWorstCaseCompletions:
// the first hard deadline miss in list order, else the period.
func refCheckSchedulable(app *model.Application, entries []Entry, start Time, k int) error {
	c := refWorstCaseCompletions(app, entries, start, k)
	for i, e := range entries {
		p := app.Proc(e.Proc)
		if p.Kind == model.Hard && c.WorstCase[i] > p.Deadline {
			return &UnschedulableError{Proc: e.Proc, Completion: c.WorstCase[i], Bound: p.Deadline}
		}
	}
	if n := len(entries); n > 0 && c.WorstCase[n-1] > app.Period() {
		return &UnschedulableError{Proc: model.NoProcess, Completion: c.WorstCase[n-1], Bound: app.Period()}
	}
	return nil
}
