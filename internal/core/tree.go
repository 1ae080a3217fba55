package core

import (
	"fmt"
	"sort"
	"strings"

	"ftsched/internal/model"
	"ftsched/internal/schedule"
)

// ArcKind distinguishes why a schedule switch is taken (paper Fig. 5: the
// no-fault group-1 switches are driven by completion times, the group-2..4
// switches by fault occurrences).
type ArcKind int

const (
	// Completion arcs are evaluated when the guarded entry completes
	// without a fault having hit it: the child re-optimises the remaining
	// order for the observed completion time.
	Completion ArcKind = iota
	// FaultRecovered arcs are evaluated when the guarded entry was hit by
	// a fault and recovered by re-execution: the child re-optimises the
	// remainder with one unit of fault budget consumed.
	FaultRecovered
	// FaultDropped arcs are evaluated when the guarded entry (a soft
	// process without recovery budget) was hit by a fault and dropped:
	// the child's suffix was synthesised with the entry in the dropped
	// set, so downstream stale-value decisions are consistent.
	FaultDropped
)

// String implements fmt.Stringer.
func (k ArcKind) String() string {
	switch k {
	case Completion:
		return "completion"
	case FaultRecovered:
		return "fault-recovered"
	case FaultDropped:
		return "fault-dropped"
	default:
		return fmt.Sprintf("ArcKind(%d)", int(k))
	}
}

// NodeID addresses a schedule within its Tree: the index into Tree.Nodes.
// The root is always NodeID 0.
type NodeID int32

// NoNode is the sentinel for "no node" (e.g. the root's parent).
const NoNode NodeID = -1

// Arc is a guarded schedule switch: when entry Pos of the owning node's
// schedule reaches outcome Kind with an observed completion time
// tc ∈ [Lo, Hi], the online scheduler switches to Child, which shares the
// executed prefix and continues with its own suffix.
type Arc struct {
	// Pos is the index of the guarded entry in the owning node's
	// schedule.
	Pos int
	// Kind selects the entry outcome the guard applies to.
	Kind ArcKind
	// Lo and Hi bound the observed completion time of the entry
	// (inclusive). Hi is utility.Infinity-free: it is always a concrete
	// bound, at most the child's safety bound t_i^c (paper §5.1).
	Lo, Hi Time
	// Gain is the mean expected-utility improvement of the child over the
	// parent across the guard interval; used to order overlapping arcs.
	Gain float64
	// Child is the schedule to switch to.
	Child NodeID
}

// Node is one schedule of the quasi-static tree. Nodes are plain values
// stored contiguously in Tree.Nodes and addressed by NodeID; their outgoing
// arcs occupy the dense range [ArcStart, ArcEnd) of Tree.Arcs.
type Node struct {
	// Schedule is the complete f-schedule (from time zero); for non-root
	// nodes the entries before SwitchPos coincide with the parent's.
	Schedule *schedule.FSchedule
	// SwitchPos is the index of the first entry that may differ from the
	// parent (0 for the root).
	SwitchPos int
	// KRem is the number of faults the node's suffix analysis tolerates
	// from its switch point: K for the root and completion children, one
	// less than the parent for fault children.
	KRem int
	// Depth is the layer of the node (root = 0).
	Depth int
	// DroppedOnFault marks, for a FaultDropped child, the entry that the
	// suffix synthesis assumed dropped (model.NoProcess otherwise).
	DroppedOnFault model.ProcessID
	// Parent is NoNode for the root.
	Parent NodeID
	// ArcStart and ArcEnd delimit the node's outgoing arcs in Tree.Arcs.
	// Within the range, arcs are grouped by (Pos, Kind) ascending and
	// ordered by descending Gain inside a group — the invariant Next's
	// binary search and the runtime dispatch compiler rely on.
	ArcStart, ArcEnd int32
}

// Tree is the fault-tolerant quasi-static tree Φ produced by FTQS, stored
// as two flat arenas: Nodes (root first, addressed by NodeID) and Arcs
// (dense per-node ranges). A tree is therefore trivially shareable across
// goroutines, cheap to serialise, and walkable without chasing pointers;
// see internal/runtime for the compiled dispatch layer built on top of it.
type Tree struct {
	// App is the application the tree was synthesised for.
	App *model.Application
	// Nodes lists every schedule in the tree, root first.
	Nodes []Node
	// Arcs is the arc arena; node i owns Arcs[Nodes[i].ArcStart:Nodes[i].ArcEnd].
	Arcs []Arc
}

// Size returns the number of schedules in the tree (the paper's "nodes"
// column in Table 1; 1 means the tree degenerates to the FTSS schedule).
func (t *Tree) Size() int { return len(t.Nodes) }

// Root returns the node the online scheduler starts with. The pointer is
// valid as long as Tree.Nodes is not reallocated.
func (t *Tree) Root() *Node { return &t.Nodes[0] }

// NodeArcs returns the outgoing arcs of a node: a subslice of the arc
// arena, which must not be appended to.
func (t *Tree) NodeArcs(id NodeID) []Arc {
	n := &t.Nodes[id]
	return t.Arcs[n.ArcStart:n.ArcEnd:n.ArcEnd]
}

// EntryOutcome describes what happened to a schedule entry at run time; the
// online scheduler passes it to Next to select the applicable arcs.
type EntryOutcome int

const (
	// CompletedOK: the entry completed, possibly after earlier entries
	// consumed fault budget, but this entry itself was not hit.
	CompletedOK EntryOutcome = iota
	// CompletedRecovered: the entry was hit by one or more faults and
	// completed via re-execution.
	CompletedRecovered
	// DroppedByFault: the entry was hit and abandoned (soft process with
	// exhausted or zero recovery budget).
	DroppedByFault
)

// Next returns the node to continue with after entry pos of node id
// completes (or is abandoned) at time tc with the given outcome. It returns
// id itself when no arc guard matches — staying with the current schedule
// is always safe because its recovery slack covers any remaining fault
// pattern.
//
// A recovered entry prefers FaultRecovered arcs and falls back to
// Completion arcs (both assume the entry's outputs exist; switching is safe
// because the child tolerates at least the faults that can still occur). A
// dropped entry matches only FaultDropped arcs, whose suffixes were
// synthesised with consistent stale-value decisions.
func (t *Tree) Next(id NodeID, pos int, tc Time, outcome EntryOutcome) NodeID {
	switch outcome {
	case CompletedOK:
		if c := t.match(id, pos, Completion, tc); c != NoNode {
			return c
		}
	case CompletedRecovered:
		if c := t.match(id, pos, FaultRecovered, tc); c != NoNode {
			return c
		}
		if c := t.match(id, pos, Completion, tc); c != NoNode {
			return c
		}
	case DroppedByFault:
		if c := t.match(id, pos, FaultDropped, tc); c != NoNode {
			return c
		}
	}
	return id
}

// match finds the best arc of node id guarding (pos, kind) whose interval
// contains tc, or NoNode. It binary-searches the node's arc range for the
// start of the (pos, kind) group — the range is sorted by (Pos, Kind) — and
// takes the first containing arc, which has the highest gain because groups
// are gain-descending (overlapping guards from different children are
// resolved in favour of the largest expected improvement).
func (t *Tree) match(id NodeID, pos int, kind ArcKind, tc Time) NodeID {
	n := &t.Nodes[id]
	arcs := t.Arcs[n.ArcStart:n.ArcEnd]
	lo, hi := 0, len(arcs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		a := &arcs[mid]
		if a.Pos < pos || (a.Pos == pos && a.Kind < kind) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for ; lo < len(arcs); lo++ {
		a := &arcs[lo]
		if a.Pos != pos || a.Kind != kind {
			break
		}
		if tc >= a.Lo && tc <= a.Hi {
			return a.Child
		}
	}
	return NoNode
}

// SortArcs orders a node's arcs into the canonical arena order: ascending
// (Pos, Kind), descending Gain within a group, stable. Next's binary
// search and the runtime dispatch compiler rely on it; loaders must apply
// it to externally supplied arcs (a no-op for anything this library
// wrote).
func SortArcs(arcs []Arc) []Arc {
	sort.SliceStable(arcs, func(i, j int) bool {
		if arcs[i].Pos != arcs[j].Pos {
			return arcs[i].Pos < arcs[j].Pos
		}
		if arcs[i].Kind != arcs[j].Kind {
			return arcs[i].Kind < arcs[j].Kind
		}
		return arcs[i].Gain > arcs[j].Gain
	})
	return arcs
}

// Format renders the tree for humans: one line per node with its schedule,
// plus one line per arc with its guard.
func (t *Tree) Format() string {
	var sb strings.Builder
	for id := range t.Nodes {
		n := &t.Nodes[id]
		fmt.Fprintf(&sb, "S%-3d depth=%d kRem=%d  %s\n", id, n.Depth, n.KRem, n.Schedule.Format(t.App))
		for _, a := range t.NodeArcs(NodeID(id)) {
			name := t.App.Proc(n.Schedule.Entries[a.Pos].Proc).Name
			fmt.Fprintf(&sb, "     after %s (%s) tc in [%d,%d] -> S%d (gain %.2f)\n",
				name, a.Kind, a.Lo, a.Hi, a.Child, a.Gain)
		}
	}
	return sb.String()
}
