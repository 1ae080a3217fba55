package certify

import (
	"ftsched/internal/core"
	"ftsched/internal/model"
)

// pattern is one canonical fault placement: one fault aimed at a first
// execution attempt of each process in victims, a process listed once
// per fault.
type pattern struct {
	victims []model.ProcessID
}

// faultsAt writes the pattern's per-process fault counts into dst, which
// holds one count per process.
func (p *pattern) faultsAt(dst []int) {
	clear(dst)
	for _, v := range p.victims {
		dst[v]++
	}
}

// maxAttempts computes, per process, the most execution attempts any node
// of the tree grants it (1 + its largest recovery budget). Faults beyond
// this bound never materialise, which is exactly the symmetry the pattern
// canonicalisation collapses.
func maxAttempts(tree *core.Tree) []int {
	att := make([]int, tree.App.N())
	for i := range tree.Nodes {
		sched := tree.Nodes[i].Schedule
		if sched == nil {
			continue
		}
		for _, e := range sched.Entries {
			if a := 1 + e.Recoveries; a > att[e.Proc] {
				att[e.Proc] = a
			}
		}
	}
	return att
}

// enumeratePatterns generates every canonical fault multiset over the
// candidate victims with sizes 0..maxFaults, in deterministic enumeration
// order, and counts the raw multisets pruned as equivalent. Capping each
// victim's count at its attempt bound maps a raw multiset to a canonical
// one; the sizes run upwards, so the first raw multiset of every capped
// class is its uncapped member, and a raw multiset is pruned exactly when
// it exceeds some victim's bound. The victims of all patterns share one
// exactly sized array.
func enumeratePatterns(n int, candidates []model.ProcessID, maxFaults int, attempts []int) (patterns []pattern, pruned int) {
	counts := make([]int, n)
	seq := make([]model.ProcessID, 0, maxFaults)
	// walk visits the victim sequence of every canonical multiset and
	// returns the number of duplicates. Multisets are generated as
	// non-decreasing candidate sequences, so each raw multiset appears
	// exactly once.
	walk := func(visit func([]model.ProcessID)) (dups int) {
		var rec func(start, left int)
		rec = func(start, left int) {
			if left == 0 {
				for _, p := range seq {
					if counts[p] > attempts[p] {
						dups++
						return
					}
				}
				visit(seq)
				return
			}
			for ci := start; ci < len(candidates); ci++ {
				p := candidates[ci]
				counts[p]++
				seq = append(seq, p)
				rec(ci, left-1)
				seq = seq[:len(seq)-1]
				counts[p]--
			}
		}
		for size := 0; size <= maxFaults; size++ {
			rec(0, size)
		}
		return dups
	}
	kept, faults := 0, 0
	pruned = walk(func(victims []model.ProcessID) { kept, faults = kept+1, faults+len(victims) })
	patterns = make([]pattern, 0, kept)
	flat := make([]model.ProcessID, 0, faults)
	walk(func(victims []model.ProcessID) {
		flat = append(flat, victims...)
		patterns = append(patterns, pattern{victims: flat[len(flat)-len(victims) : len(flat) : len(flat)]})
	})
	return patterns, pruned
}

// rootCandidates returns the distinct processes of the root f-schedule in
// schedule order — the only processes a fault can hit before the first
// switch, and (because every node shares the root's prefix reachability)
// the victim universe certification needs to cover.
func rootCandidates(tree *core.Tree) []model.ProcessID {
	entries := tree.Root().Schedule.Entries
	seen := make(map[model.ProcessID]bool, len(entries))
	out := make([]model.ProcessID, 0, len(entries))
	for _, e := range entries {
		if !seen[e.Proc] {
			seen[e.Proc] = true
			out = append(out, e.Proc)
		}
	}
	return out
}
