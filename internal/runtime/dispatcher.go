package runtime

import (
	"fmt"
	"sync"

	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/utility"
)

// segment is one disjoint piece of a compiled guard group: completion
// times in [lo, hi] switch to child. Within a group, segments are sorted
// by lo and never overlap.
type segment struct {
	lo, hi model.Time
	child  core.NodeID
}

// group is the compiled dispatch entry for one (position, kind) pair of a
// node: the slice [segStart, segEnd) of the segment arena.
type group struct {
	pos              int32
	kind             core.ArcKind
	segStart, segEnd int32
}

// groupRange delimits one node's groups in the group arena.
type groupRange struct {
	start, end int32
}

// Dispatcher is the compiled, immutable online-scheduler state for one
// quasi-static tree. Construction resolves the tree's overlapping guard
// arcs into disjoint segments and caches the per-process parameters the
// attempt kernel needs every cycle; afterwards executing a scenario
// performs no allocation (with RunInto) and no linear arc scan. A
// Dispatcher is safe for concurrent use by multiple goroutines.
type Dispatcher struct {
	tree *core.Tree

	nodeGroups []groupRange
	groups     []group
	segs       []segment

	// preds[p] is app.Preds(p), for the mapped loop's cross-core
	// precedence.
	preds   [][]model.ProcessID
	hardIDs []model.ProcessID

	// sink receives dispatch events; nil when observability is disabled
	// (the default, and what obs.NopSink normalises to), so the hot path
	// pays one branch per cycle.
	sink obs.Sink

	// env is the WithEnvelope configuration, nil without one: each
	// entry's duration is checked against the fault model and the policy
	// is applied at the first out-of-model event. emergency holds the
	// precomputed hard-only suffix schedules PolicyShedSoft falls back to.
	env       *EnvelopeConfig
	emergency *core.EmergencyPlan

	// kern is the attempt kernel; loop is the cycle loop NewDispatcher
	// selected from the platform: loopCanonical on the paper's single
	// core at speed 1, loopMapped on any other.
	kern kernel
	loop func(*Dispatcher, *cycleState)

	bufs sync.Pool
}

// Option configures a Dispatcher at construction.
type Option func(*Dispatcher)

// WithSink routes the dispatcher's events (cycles, switches, guard search
// depths, absorbed/abandoned faults, hard-deadline slack) to s. A nil
// sink or obs.NopSink leaves instrumentation disabled; RunInto stays at 0
// allocations per cycle either way.
func WithSink(s obs.Sink) Option {
	return func(d *Dispatcher) {
		if obs.Live(s) {
			d.sink = s
		} else {
			d.sink = nil
		}
	}
}

// NewDispatcher compiles a tree. The tree must stay unmodified while the
// Dispatcher is in use (trimming recompiles after each mutation).
//
// The tree is audited with core.VerifyStructure before compilation and the
// compiled dispatch table is audited afterwards; a malformed tree
// (out-of-range node IDs, missing schedules, cyclic parent links,
// inconsistent guard segments) yields a *MalformedTreeError — never a
// panic — so trees from untrusted storage degrade into a typed error.
// Note this is the structural audit only: run core.VerifyTree for the
// full hard-deadline safety audit, or internal/certify for exhaustive
// certification against the compiled dispatcher itself.
func NewDispatcher(tree *core.Tree, opts ...Option) (*Dispatcher, error) {
	if err := core.VerifyStructure(tree); err != nil {
		return nil, &MalformedTreeError{Err: err}
	}
	app := tree.App
	n := app.N()
	d := &Dispatcher{
		tree:    tree,
		preds:   make([][]model.ProcessID, n),
		hardIDs: app.HardIDs(),
		kern:    newKernel(app),
	}
	for _, opt := range opts {
		opt(d)
	}
	if d.env != nil {
		if d.env.Policy < PolicyStrict || d.env.Policy > PolicyBestEffort {
			return nil, fmt.Errorf("runtime: unknown DegradePolicy %d", int(d.env.Policy))
		}
		d.kern.bound, d.kern.policy = app.K(), d.env.Policy
		if d.env.Policy == PolicyShedSoft {
			d.emergency = core.BuildEmergencyPlan(tree)
		}
	}
	for id := range d.preds {
		d.preds[id] = app.Preds(model.ProcessID(id))
	}
	d.loop = (*Dispatcher).loopMapped
	if app.Platform().IsDefault() {
		d.loop = (*Dispatcher).loopCanonical
	}
	if err := d.kern.rec.Validate(); err != nil {
		return nil, &MalformedTreeError{Err: err}
	}
	d.bufs.New = func() any { return d.newState() }
	d.compile()
	if err := d.auditSegments(); err != nil {
		return nil, &MalformedTreeError{Err: err}
	}
	return d, nil
}

// newState allocates the scratch of one cycle.
func (d *Dispatcher) newState() *cycleState {
	n, ncores := len(d.kern.procs), len(d.kern.cores)
	return &cycleState{
		faultsLeft: make([]int, n),
		status:     make([]utility.StaleStatus, n),
		alpha:      make([]float64, n),
		ready:      make([]model.Time, ncores),
		busy:       make([]model.Time, ncores),
	}
}

// MustNewDispatcher is NewDispatcher for trees known to be well-formed
// (freshly synthesised, already verified); it panics on a malformed tree.
func MustNewDispatcher(tree *core.Tree, opts ...Option) *Dispatcher {
	d, err := NewDispatcher(tree, opts...)
	if err != nil {
		panic(err)
	}
	return d
}

// auditSegments re-checks the compiled dispatch table: within every group
// the segments must be sorted by lo, non-empty, disjoint, and switch to an
// in-range node carrying a schedule. compile is constructed to guarantee
// all of this, so a finding here means the compiler (or the memory under
// it) is broken — worth one linear pass at construction to turn a would-be
// silent misdispatch into a typed error.
func (d *Dispatcher) auditSegments() error {
	for gi := range d.groups {
		g := &d.groups[gi]
		if g.segStart < 0 || g.segEnd < g.segStart || int(g.segEnd) > len(d.segs) {
			return fmt.Errorf("dispatch group %d: segment range [%d,%d) outside arena of %d", gi, g.segStart, g.segEnd, len(d.segs))
		}
		segs := d.segs[g.segStart:g.segEnd]
		for si := range segs {
			s := &segs[si]
			if s.lo > s.hi {
				return fmt.Errorf("dispatch group %d: segment %d is empty [%d,%d]", gi, si, s.lo, s.hi)
			}
			if si > 0 && segs[si-1].hi >= s.lo {
				return fmt.Errorf("dispatch group %d: segments %d and %d overlap or are unsorted", gi, si-1, si)
			}
			if s.child < 0 || int(s.child) >= len(d.tree.Nodes) || d.tree.Nodes[s.child].Schedule == nil {
				return fmt.Errorf("dispatch group %d: segment %d switches to unusable node S%d", gi, si, s.child)
			}
		}
	}
	return nil
}

// compile flattens every node's arcs into disjoint dispatch segments. The
// arena already delivers arcs grouped by (Pos, Kind) with descending gain
// inside a group — the tree's canonical order — so within a group the
// first arc containing a completion time is the winner. compile makes that
// priority explicit: each arc claims only the parts of its guard no
// higher-gain arc of the same group already covers, producing disjoint
// segments that a binary search resolves with no gain comparison at run
// time. Arcs with an empty guard (Lo > Hi, trimming's disable marker) are
// skipped.
func (d *Dispatcher) compile() {
	t := d.tree
	d.nodeGroups = make([]groupRange, len(t.Nodes))
	d.groups = d.groups[:0]
	d.segs = d.segs[:0]
	var claimed []segment // coverage of the current group, sorted by lo
	for id := range t.Nodes {
		arcs := t.NodeArcs(core.NodeID(id))
		gStart := int32(len(d.groups))
		for i := 0; i < len(arcs); {
			j := i
			for j < len(arcs) && arcs[j].Pos == arcs[i].Pos && arcs[j].Kind == arcs[i].Kind {
				j++
			}
			segStart := int32(len(d.segs))
			claimed = claimed[:0]
			for _, a := range arcs[i:j] {
				if a.Lo > a.Hi {
					continue
				}
				claimed = claim(claimed, a.Lo, a.Hi, a.Child)
			}
			for _, s := range claimed {
				d.segs = append(d.segs, s)
			}
			if len(d.segs) > int(segStart) {
				d.groups = append(d.groups, group{
					pos:      int32(arcs[i].Pos),
					kind:     arcs[i].Kind,
					segStart: segStart,
					segEnd:   int32(len(d.segs)),
				})
			}
			i = j
		}
		d.nodeGroups[id] = groupRange{start: gStart, end: int32(len(d.groups))}
	}
}

// claim inserts [lo, hi]→child into the sorted disjoint coverage, keeping
// only the parts not already covered (earlier claims have priority).
func claim(cov []segment, lo, hi model.Time, child core.NodeID) []segment {
	// Walk the sorted coverage, collecting the uncovered gaps of [lo, hi].
	var pieces []segment
	cur := lo
	for _, s := range cov {
		if cur > hi {
			break
		}
		if s.hi < cur {
			continue
		}
		if s.lo > hi {
			break
		}
		if s.lo > cur {
			pieces = append(pieces, segment{lo: cur, hi: s.lo - 1, child: child})
		}
		cur = s.hi + 1
	}
	if cur <= hi {
		pieces = append(pieces, segment{lo: cur, hi: hi, child: child})
	}
	cov = append(cov, pieces...)
	// Insertion sort: groups are small and cov was sorted before.
	for i := 1; i < len(cov); i++ {
		for j := i; j > 0 && cov[j].lo < cov[j-1].lo; j-- {
			cov[j], cov[j-1] = cov[j-1], cov[j]
		}
	}
	return cov
}

// Tree returns the tree the dispatcher was compiled from.
func (d *Dispatcher) Tree() *core.Tree { return d.tree }

// next resolves the schedule switch after entry pos of node id completed
// (or was abandoned) at time tc — the compiled equivalent of
// core.Tree.Next, with identical semantics. With a live sink, every
// guard lookup's binary-search depth is tallied into the cycle state st
// (nil outside a cycle).
func (d *Dispatcher) next(id core.NodeID, pos int, tc model.Time, outcome core.EntryOutcome, st *cycleState) core.NodeID {
	switch outcome {
	case core.CompletedOK:
		if c := d.lookup(id, pos, core.Completion, tc, st); c != core.NoNode {
			return c
		}
	case core.CompletedRecovered:
		if c := d.lookup(id, pos, core.FaultRecovered, tc, st); c != core.NoNode {
			return c
		}
		if c := d.lookup(id, pos, core.Completion, tc, st); c != core.NoNode {
			return c
		}
	case core.DroppedByFault:
		if c := d.lookup(id, pos, core.FaultDropped, tc, st); c != core.NoNode {
			return c
		}
	}
	return id
}

// lookup binary-searches the node's compiled groups for (pos, kind), then
// the group's disjoint segments for tc, tallying the total search depth
// into st.
func (d *Dispatcher) lookup(id core.NodeID, pos int, kind core.ArcKind, tc model.Time, st *cycleState) core.NodeID {
	depth := 0
	gr := d.nodeGroups[id]
	gs := d.groups[gr.start:gr.end]
	lo, hi := 0, len(gs)
	for lo < hi {
		depth++
		mid := int(uint(lo+hi) >> 1)
		g := &gs[mid]
		if int(g.pos) < pos || (int(g.pos) == pos && g.kind < kind) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(gs) || int(gs[lo].pos) != pos || gs[lo].kind != kind {
		d.tally(st, depth)
		return core.NoNode
	}
	segs := d.segs[gs[lo].segStart:gs[lo].segEnd]
	a, b := 0, len(segs)
	for a < b {
		depth++
		mid := int(uint(a+b) >> 1)
		if segs[mid].hi < tc {
			a = mid + 1
		} else {
			b = mid
		}
	}
	d.tally(st, depth)
	if a < len(segs) && segs[a].lo <= tc && tc <= segs[a].hi {
		return segs[a].child
	}
	return core.NoNode
}

// checkScenario is the O(1) guard the run loop needs so scenario indexing
// cannot fault; it deliberately does not duplicate Scenario.Validate (out
// of the hot path — validate untrusted scenarios explicitly).
func (d *Dispatcher) checkScenario(sc Scenario) error {
	if n := len(d.kern.procs); len(sc.Durations) != n || len(sc.FaultsAt) != n {
		return &ScenarioSizeError{Durations: len(sc.Durations), Faults: len(sc.FaultsAt), Want: n}
	}
	return nil
}

// Run executes one scenario and returns a freshly allocated Result. The
// errors are a *ScenarioSizeError for mis-sized scenario slices and, with
// an envelope attached under PolicyStrict, an *EnvelopeError when the
// cycle left the fault model (the Result is still populated up to the
// abort point).
func (d *Dispatcher) Run(sc Scenario) (Result, error) {
	var res Result
	err := d.RunInto(&res, sc)
	return res, err
}

// RunInto executes one scenario, reusing the buffers of res. It is the
// allocation-free entry point for bulk evaluation: pass the same Result to
// successive calls and copy out (or reduce) what you need between them.
// The errors are a *ScenarioSizeError for mis-sized scenario slices and,
// with an envelope attached under PolicyStrict, an *EnvelopeError when
// the cycle left the fault model (res is still populated up to the abort
// point).
func (d *Dispatcher) RunInto(res *Result, sc Scenario) error {
	if err := d.checkScenario(sc); err != nil {
		return err
	}
	return d.run(res, sc, nil)
}

// RunTrace is Run with full event recording, for visualisation and
// debugging. The returned events are ordered by time (ties in execution
// order). On an *EnvelopeError the result and events cover the cycle up
// to the strict abort.
func (d *Dispatcher) RunTrace(sc Scenario) (Result, []TraceEvent, error) {
	var res Result
	if err := d.checkScenario(sc); err != nil {
		return res, nil, err
	}
	var events []TraceEvent
	err := d.run(&res, sc, &events)
	return res, events, err
}

// resize returns s resized to n zero elements, reusing its array when
// the capacity allows (the zero ProcessOutcome is NotScheduled).
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
