package runtime

import (
	"ftsched/internal/core"
	"ftsched/internal/model"
)

// Next exposes the compiled switch resolution so the external tests can
// check it against core.Tree.Next point for point.
func (d *Dispatcher) Next(id core.NodeID, pos int, tc model.Time, outcome core.EntryOutcome) core.NodeID {
	return d.next(id, pos, tc, outcome, nil)
}

// Segments returns the compiled segment count, for the compile-shape tests.
func (d *Dispatcher) Segments() int { return len(d.segs) }

// CorruptSegments redirects every compiled segment to the given node,
// simulating post-construction corruption of the dispatch table so the
// degradation tests can exercise the mid-cycle root fallback.
func (d *Dispatcher) CorruptSegments(child core.NodeID) {
	for i := range d.segs {
		d.segs[i].child = child
	}
}

// UtilityPaths reports how the Replayer's non-recording cycles booked
// their utility: reusing the record's α with every completion time
// unchanged, reusing it with some changed, or by the full recurrence.
func (r *Replayer) UtilityPaths() (kept, moved, recomputed int) {
	return r.kept, r.moved, r.recomputed
}
