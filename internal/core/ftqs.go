package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/par"
	"ftsched/internal/schedule"
)

// FTQSOptions tunes the quasi-static tree synthesis.
type FTQSOptions struct {
	// M limits the number of schedules in the tree (paper: "we are
	// interested in determining the best M schedules"). M = 1 yields the
	// bare FTSS schedule. Values below 1 are treated as 1.
	M int
	// SweepSamples bounds the number of probe points interval
	// partitioning uses per candidate arc. The sweep is exact (every
	// integer completion time, as in the paper) whenever the completion
	// window is narrower than SweepSamples; wider windows are probed with
	// a stride and guard boundaries are refined by bisection. Defaults
	// to 256.
	SweepSamples int
	// MinGain is the smallest mean utility improvement a candidate
	// sub-schedule must offer to be kept. Defaults to 1e-9 (any strict
	// improvement).
	MinGain float64
	// EvalScenarios selects how schedules are compared during interval
	// partitioning: 1 evaluates completion times at the average execution
	// times (the paper's point estimate); larger values average over a
	// deterministic quadrature of uniform execution times, which removes
	// the point estimate's optimism near guard boundaries. Defaults to 8.
	EvalScenarios int
	// DisableRevival, for ablation studies, prevents sub-schedules from
	// re-admitting processes their parent dropped. The pessimistic
	// worst-case root drops generously, and reviving its victims when
	// execution runs early is the dominant source of the quasi-static
	// utility gain (see DESIGN.md); disabling it isolates the
	// contribution of pure reordering.
	DisableRevival bool
	// Workers bounds the goroutines generating one node's candidate
	// sub-schedules (one per position after the switch point). 0 selects
	// runtime.GOMAXPROCS(0); 1 forces fully serial synthesis. The tree is
	// identical for every worker count: candidate generation is
	// side-effect-free, and a single coordinator collects the candidates
	// in position order and attaches them in the serial order.
	Workers int
	// Sink receives synthesis events (nodes expanded, memoisation
	// hits/misses, candidates kept/rejected, worker busy time). A nil sink
	// or obs.NopSink disables instrumentation. Instrumentation never
	// alters the synthesised tree.
	Sink obs.Sink
}

// Validate normalises the options and rejects impossible values: negative
// SweepSamples, EvalScenarios or Workers, and a non-finite MinGain. Zero
// values are replaced by the documented defaults (and M < 1 by 1), so a
// zero FTQSOptions validates to the default configuration. Every synthesis
// entry point applies Validate, so CLI flags and library callers get the
// same diagnostics.
func (o FTQSOptions) Validate() (FTQSOptions, error) {
	if o.SweepSamples < 0 {
		return o, fmt.Errorf("core: FTQSOptions.SweepSamples must be non-negative, got %d", o.SweepSamples)
	}
	if o.EvalScenarios < 0 {
		return o, fmt.Errorf("core: FTQSOptions.EvalScenarios must be non-negative, got %d", o.EvalScenarios)
	}
	if o.Workers < 0 {
		return o, fmt.Errorf("core: FTQSOptions.Workers must be non-negative, got %d", o.Workers)
	}
	if math.IsNaN(o.MinGain) || math.IsInf(o.MinGain, 0) {
		return o, fmt.Errorf("core: FTQSOptions.MinGain must be finite, got %v", o.MinGain)
	}
	return o.withDefaults(), nil
}

func (o FTQSOptions) withDefaults() FTQSOptions {
	if o.M < 1 {
		o.M = 1
	}
	if o.SweepSamples <= 0 {
		o.SweepSamples = 256
	}
	if o.MinGain <= 0 {
		o.MinGain = 1e-9
	}
	if o.EvalScenarios <= 0 {
		o.EvalScenarios = 8
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// FTQS synthesises a fault-tolerant quasi-static tree of at most opts.M
// schedules for the application (paper Fig. 6 + Fig. 7): the root
// f-schedule comes from FTSS; sub-schedules are generated layer by layer
// for the best- and worst-case completion times of every process, and
// interval partitioning derives the switching guards. Returns
// ErrUnschedulable when no root f-schedule guarantees the hard deadlines.
func FTQS(app *model.Application, opts FTQSOptions) (*Tree, error) {
	return FTQSContext(context.Background(), app, opts)
}

// FTQSContext is FTQS honouring cancellation: ctx is checked before every
// node expansion and before every candidate position, and ctx.Err() is
// returned once the in-flight positions have finished (no goroutines are
// leaked). The tree built so far is discarded.
func FTQSContext(ctx context.Context, app *model.Application, opts FTQSOptions) (*Tree, error) {
	root, err := FTSS(app)
	if err != nil {
		return nil, err
	}
	return FTQSFromRootContext(ctx, app, root, opts)
}

// FTQSFromRoot is FTQS starting from a pre-computed root f-schedule. The
// root must be valid for the application (schedule.Validate) and
// schedulable with k = app.K() faults; this is checked.
func FTQSFromRoot(app *model.Application, root *schedule.FSchedule, opts FTQSOptions) (*Tree, error) {
	return FTQSFromRootContext(context.Background(), app, root, opts)
}

// FTQSFromRootContext is FTQSFromRoot honouring cancellation, with the same
// node-expansion granularity as FTQSContext.
func FTQSFromRootContext(ctx context.Context, app *model.Application, root *schedule.FSchedule, opts FTQSOptions) (*Tree, error) {
	opts, err := opts.Validate()
	if err != nil {
		return nil, err
	}
	if err := schedule.Validate(app, root); err != nil {
		return nil, err
	}
	if err := schedule.CheckSchedulable(app, root.Entries, 0, app.K()); err != nil {
		return nil, unschedulableFrom(err)
	}
	b := &treeBuilder{app: app}
	b.add(&bNode{Node: Node{
		Schedule:       root,
		SwitchPos:      0,
		KRem:           app.K(),
		Depth:          0,
		DroppedOnFault: model.NoProcess,
		Parent:         NoNode,
	}})
	syn := newSynthesizer(app, opts)
	defer syn.flushMemoStats()
	for len(b.nodes) < opts.M {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := b.pickNext()
		if n == nil {
			break // every reachable sub-schedule is already in the tree
		}
		cands, err := syn.generate(ctx, n)
		if err != nil {
			return nil, err
		}
		n.expanded = true
		syn.count(obs.FTQSNodesExpanded, 1)
		for _, c := range cands {
			if len(b.nodes) >= opts.M {
				break
			}
			b.attachChild(n, c)
		}
		n.arcs = dedupeSortArcs(n.arcs)
	}
	return b.build(), nil
}

// treeBuilder is the growable, pointer-linked form a tree takes during
// synthesis. Only the coordinator goroutine mutates it; build flattens it
// into the immutable arena representation handed to consumers.
type treeBuilder struct {
	app   *model.Application
	nodes []*bNode
}

// bNode is a node under construction: the final Node value (ArcStart and
// ArcEnd are assigned by build) plus the growable arc slice and the
// coordinator's expansion scratch.
type bNode struct {
	Node
	id        NodeID
	parent    *bNode
	arcs      []Arc
	expanded  bool
	dist      int
	distValid bool
}

// add assigns the node the next NodeID and appends it.
func (b *treeBuilder) add(n *bNode) *bNode {
	n.id = NodeID(len(b.nodes))
	b.nodes = append(b.nodes, n)
	return n
}

// attachChild adds the candidate as a node and wires its guard arcs.
func (b *treeBuilder) attachChild(n *bNode, c candidate) {
	full := make([]schedule.Entry, 0, c.pos+1+len(c.suffix))
	full = append(full, n.Schedule.Entries[:c.pos+1]...)
	full = append(full, c.suffix...)
	child := b.add(&bNode{
		Node: Node{
			Schedule:       &schedule.FSchedule{Entries: full},
			SwitchPos:      c.pos + 1,
			KRem:           c.kRem,
			Depth:          n.Depth + 1,
			DroppedOnFault: c.droppedOF,
			Parent:         n.id,
		},
		parent: n,
	})
	for _, iv := range c.intervals {
		n.arcs = append(n.arcs, Arc{
			Pos: c.pos, Kind: c.kind, Lo: iv.Lo, Hi: iv.Hi,
			Gain: iv.Gain, Child: child.id,
		})
	}
}

// build flattens the builder into the arena representation: nodes in
// NodeID order, each node's arcs contiguous in the shared arc slice (they
// are already in the canonical (Pos, Kind, Gain-descending) order, because
// the coordinator runs dedupeSortArcs after expanding each node).
func (b *treeBuilder) build() *Tree {
	total := 0
	for _, n := range b.nodes {
		total += len(n.arcs)
	}
	t := &Tree{
		App:   b.app,
		Nodes: make([]Node, len(b.nodes)),
		Arcs:  make([]Arc, 0, total),
	}
	for i, n := range b.nodes {
		nd := n.Node
		nd.ArcStart = int32(len(t.Arcs))
		t.Arcs = append(t.Arcs, n.arcs...)
		nd.ArcEnd = int32(len(t.Arcs))
		t.Nodes[i] = nd
	}
	return t
}

// pickNext selects the next node to expand, or nil when every node is
// expanded: the shallowest unexpanded node, and among equals the one most
// similar to its parent (smallest Kendall distance between the suffix
// orders), ties broken towards the earliest-attached node. Refining
// near-duplicates first steers the tree towards "the most different
// sub-schedules" overall (see DESIGN.md on FindMostSimilarSubschedule).
func (b *treeBuilder) pickNext() *bNode {
	var best *bNode
	for _, n := range b.nodes {
		if n.expanded {
			continue
		}
		if best == nil || n.Depth < best.Depth ||
			(n.Depth == best.Depth && n.simDist() < best.simDist()) {
			best = n
		}
	}
	return best
}

// simDist is the node's Kendall distance to its parent, computed lazily
// and cached (it depends only on the immutable schedules). Only the
// coordinator goroutine calls it.
func (n *bNode) simDist() int {
	if n.parent == nil {
		return 0
	}
	if !n.distValid {
		n.dist = kendallDistance(
			n.parent.Schedule.Entries[n.SwitchPos:],
			n.Schedule.Entries[n.SwitchPos:])
		n.distValid = true
	}
	return n.dist
}

// kendallDistance counts process pairs ordered differently in the two entry
// sequences (restricted to processes present in both).
func kendallDistance(a, b []schedule.Entry) int {
	posB := make(map[model.ProcessID]int, len(b))
	for i, e := range b {
		posB[e.Proc] = i
	}
	var common []int // positions in b of a's processes, in a's order
	for _, e := range a {
		if p, ok := posB[e.Proc]; ok {
			common = append(common, p)
		}
	}
	d := 0
	for i := 0; i < len(common); i++ {
		for j := i + 1; j < len(common); j++ {
			if common[i] > common[j] {
				d++
			}
		}
	}
	return d
}

// candidate is a generated sub-schedule awaiting selection.
type candidate struct {
	pos       int
	kind      ArcKind
	suffix    []schedule.Entry
	kRem      int
	droppedOF model.ProcessID
	intervals []interval
	gain      float64
}

// synthesizer holds the per-run state of one FTQS synthesis: the options,
// the SuffixFTSS memoization cache and the sink. Candidate generation
// (generate/candidatesAt/makeCandidate) is a pure function of the
// immutable application, the node and the options, so the positions of one
// node are generated concurrently; only the coordinator loop in
// FTQSFromRootContext mutates the builder.
type synthesizer struct {
	app  *model.Application
	opts FTQSOptions
	memo *suffixMemo // shared across the whole tree
	// sink receives synthesis events; nil when observability is disabled.
	// Emitting is always sound from worker goroutines (sinks are
	// concurrency-safe by contract) and never influences the tree.
	sink obs.Sink
}

// count emits one counter increment if a sink is installed.
func (s *synthesizer) count(c obs.Counter, delta int64) {
	if s.sink != nil {
		s.sink.Add(c, delta)
	}
}

func newSynthesizer(app *model.Application, opts FTQSOptions) *synthesizer {
	s := &synthesizer{app: app, opts: opts, memo: newSuffixMemo()}
	if obs.Live(opts.Sink) {
		s.sink = opts.Sink
	}
	return s
}

// flushMemoStats reports the memoisation statistics to the sink.
func (s *synthesizer) flushMemoStats() {
	if s.sink != nil {
		hits, misses := s.memo.stats()
		s.sink.Add(obs.FTQSMemoHits, int64(hits))
		s.sink.Add(obs.FTQSMemoMisses, int64(misses))
	}
}

// generate implements CreateSubschedules for one parent (paper Fig. 7,
// line 2/7): for every position after the parent's switch point it
// synthesises (a) a completion sub-schedule assuming the entry finishes at
// its best-possible time, (b) a fault sub-schedule assuming the entry is
// hit and recovered, and (c) for soft entries without recovery budget, a
// fault sub-schedule assuming the entry is dropped. Interval partitioning
// against the parent prices each candidate. Positions are independent and
// are fanned out over opts.Workers goroutines (par.For); the per-position
// results are collected in position order, so the flattened list — and
// therefore the tree — is identical to a serial run. The error is ctx.Err()
// on cancellation.
func (s *synthesizer) generate(ctx context.Context, n *bNode) ([]candidate, error) {
	entries := n.Schedule.Entries
	droppedBase := droppedSet(s.app, n.Schedule)
	if n.DroppedOnFault != model.NoProcess {
		droppedBase.Add(n.DroppedOnFault)
	}
	nPos := len(entries) - 1 - n.SwitchPos
	if nPos <= 0 {
		return nil, nil
	}
	perPos := make([][]candidate, nPos)
	err := par.For(ctx, nPos, s.opts.Workers, func(int) func(int) error {
		// Each position times itself when a sink is live so worker
		// utilisation (busy time vs wall clock) can be derived.
		return func(i int) error {
			if s.sink == nil {
				perPos[i] = s.candidatesAt(n, n.SwitchPos+i, droppedBase)
				return nil
			}
			t0 := time.Now()
			perPos[i] = s.candidatesAt(n, n.SwitchPos+i, droppedBase)
			s.sink.Add(obs.FTQSWorkerBusyNanos, time.Since(t0).Nanoseconds())
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	var cands []candidate
	for _, cs := range perPos {
		cands = append(cands, cs...)
	}
	s.count(obs.FTQSCandidatesKept, int64(len(cands)))
	// Best candidates first (paper: keep the sub-schedules with the most
	// significant utility improvement).
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			if cands[j].gain > cands[i].gain {
				cands[i], cands[j] = cands[j], cands[i]
			}
		}
	}
	return cands, nil
}

// candidatesAt synthesises the candidate children guarded by entry pos of
// n. Side-effect-free: it reads only the immutable application, the node's
// immutable fields and the shared droppedBase set.
func (s *synthesizer) candidatesAt(n *bNode, pos int, droppedBase model.ProcSet) []candidate {
	app := s.app
	entries := n.Schedule.Entries
	prefix := entries[:pos+1]
	best := schedule.BestCaseCompletions(app, prefix, 0)
	worst := schedule.WorstCaseCompletions(app, prefix, 0, n.KRem)
	bestFinish := best.Finish[pos]
	bestStart := best.Start[pos]
	wcHi := worst.WorstCase[pos]
	e := entries[pos]
	p := app.Proc(e.Proc)

	executed := model.NewProcSet(app.N())
	for _, pe := range prefix {
		executed.Add(pe.Proc)
	}
	// A child re-optimises the remainder from scratch, so processes
	// the parent dropped become candidates again — the pessimistic
	// worst-case root drops generously, and re-admitting its
	// victims when execution runs early is the main source of the
	// quasi-static utility gain. Re-admission is only sound while
	// none of the process's successors has executed (otherwise the
	// consumer already ran on a stale value).
	dropped := model.NewProcSet(app.N())
	for id := 0; id < app.N(); id++ {
		pid := model.ProcessID(id)
		if !droppedBase.Has(pid) {
			continue
		}
		revivable := !s.opts.DisableRevival
		for _, sc := range app.Succs(pid) {
			if executed.Has(sc) {
				revivable = false
				break
			}
		}
		if !revivable {
			dropped.Add(pid)
		}
	}

	var out []candidate
	// The paper explores the combinations of best- and worst-case
	// execution times: every child kind is synthesised twice, once
	// for the best-possible and once for the worst-possible
	// completion of the guarded entry (§5.1). Duplicates are
	// merged by addKind (at most two candidates per kind, so a
	// direct suffix comparison replaces any signature machinery).
	addKind := func(kind ArcKind, lo Time, kRem int,
		exec, drop model.ProcSet, droppedOF model.ProcessID) {
		var firstSuffix []schedule.Entry
		haveFirst := false
		for _, genStart := range []Time{lo, wcHi} {
			if genStart < lo {
				continue
			}
			c := s.makeCandidate(n, pos, kind, exec, drop,
				lo, genStart, wcHi, kRem, droppedOF)
			if c == nil {
				continue
			}
			if haveFirst && sameEntries(c.suffix, firstSuffix) {
				s.count(obs.FTQSCandidatesRejected, 1)
				continue
			}
			firstSuffix, haveFirst = c.suffix, true
			out = append(out, *c)
		}
	}

	// (a) Completion child.
	addKind(Completion, bestFinish, n.KRem, executed, dropped, model.NoProcess)

	// (b) Fault child with recovery. The earliest fault-recovered
	// completion is the best-case attempt, the per-fault overhead, and
	// the best-case re-run under the recovery model (the full BCET for
	// re-execution and restart, the final checkpoint segment otherwise).
	if e.Recoveries > 0 && n.KRem > 0 {
		rec := app.Recovery()
		lo := bestStart + rec.AttemptTime(p.BCET) + app.RecoveryOverhead(e.Proc) + rec.ResumeTime(p.BCET)
		addKind(FaultRecovered, lo, n.KRem-1, executed, dropped, model.NoProcess)
	}

	// (c) Fault child with dropping (soft, no recovery budget).
	if p.Kind == model.Soft && e.Recoveries == 0 && n.KRem > 0 {
		lo := bestStart + p.BCET
		exWithout := executed.Clone()
		exWithout.Remove(e.Proc)
		drWith := dropped.Clone()
		drWith.Add(e.Proc)
		addKind(FaultDropped, lo, n.KRem-1, exWithout, drWith, e.Proc)
	}
	return out
}

// suffixFTSS is SuffixFTSSSet through the memoization cache: identical
// (executed set, dropped set, start, budget) requests across the whole
// tree are synthesised once. Returns nil when the suffix is infeasible or
// empty. The returned entries are shared and must not be mutated.
func (s *synthesizer) suffixFTSS(executed, dropped model.ProcSet, start Time, kRem int) []schedule.Entry {
	key := suffixKey{
		executed: executed.Key(),
		dropped:  dropped.Key(),
		start:    start,
		kRem:     kRem,
	}
	if e, ok := s.memo.get(key); ok {
		return e
	}
	suffix, err := SuffixFTSSSet(s.app, executed, dropped, start, kRem)
	if err != nil {
		suffix = nil
	}
	s.memo.put(key, suffix)
	return suffix
}

// makeCandidate synthesises one sub-schedule (assuming the guarded entry
// completes at genStart) and prices it with interval partitioning over the
// whole completion window [lo, hi]; nil when the candidate is infeasible,
// identical to the parent's own continuation, or not a strict improvement
// anywhere.
func (s *synthesizer) makeCandidate(n *bNode, pos int, kind ArcKind,
	executed, dropped model.ProcSet, lo, genStart, hi Time, kRem int,
	droppedOF model.ProcessID) *candidate {

	app := s.app
	suffix := s.suffixFTSS(executed, dropped, genStart, kRem)
	if len(suffix) == 0 {
		s.count(obs.FTQSCandidatesRejected, 1)
		return nil
	}
	parentSuffix := n.Schedule.Entries[pos+1:]
	if kind == Completion && sameEntries(suffix, parentSuffix) {
		s.count(obs.FTQSCandidatesRejected, 1)
		return nil
	}

	// Dropped-set assumptions for the two evaluators.
	parentDropped := droppedAssumption(app, n, droppedOF)
	childDropped := make([]bool, app.N())
	in := executed.Clone()
	for _, e := range suffix {
		in.Add(e.Proc)
	}
	for id := 0; id < app.N(); id++ {
		childDropped[id] = !in.Has(model.ProcessID(id))
	}

	parentEval := newSuffixEval(app, parentSuffix, parentDropped, s.opts.EvalScenarios)
	childEval := newSuffixEval(app, suffix, childDropped, s.opts.EvalScenarios)
	ivs := partitionChild(app, parentEval, childEval, suffix, lo, hi, kRem, s.opts.SweepSamples)
	if len(ivs) == 0 {
		s.count(obs.FTQSCandidatesRejected, 1)
		return nil
	}
	var gain float64
	for _, iv := range ivs {
		gain += iv.Gain * float64(iv.Hi-iv.Lo+1)
	}
	gain /= float64(hi - lo + 1)
	if gain < s.opts.MinGain {
		s.count(obs.FTQSCandidatesRejected, 1)
		return nil
	}
	return &candidate{
		pos: pos, kind: kind, suffix: suffix, kRem: kRem,
		droppedOF: droppedOF, intervals: ivs, gain: gain,
	}
}

// droppedAssumption returns the dropped set (as the []bool form the
// suffix evaluators consume) under which the parent's own continuation is
// evaluated for a given scenario: the parent's dropped processes, plus the
// entry abandoned by the fault for FaultDropped arcs.
func droppedAssumption(app *model.Application, n *bNode, droppedOF model.ProcessID) []bool {
	d := make([]bool, app.N())
	for i := range d {
		d[i] = true
	}
	for _, e := range n.Schedule.Entries {
		d[e.Proc] = false
	}
	if n.DroppedOnFault != model.NoProcess {
		d[n.DroppedOnFault] = true
	}
	if droppedOF != model.NoProcess {
		d[droppedOF] = true
	}
	return d
}

// droppedSet marks every process of the application absent from the
// schedule.
func droppedSet(app *model.Application, s *schedule.FSchedule) model.ProcSet {
	d := model.NewProcSet(app.N())
	for id := 0; id < app.N(); id++ {
		d.Add(model.ProcessID(id))
	}
	for _, e := range s.Entries {
		d.Remove(e.Proc)
	}
	return d
}

func sameEntries(a, b []schedule.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
