package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
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
	M int `json:"m"`
	// SweepSamples bounds the number of probe points interval
	// partitioning uses per candidate arc. The sweep is exact (every
	// integer completion time, as in the paper) whenever the completion
	// window is narrower than SweepSamples; wider windows are probed with
	// a stride and guard boundaries are refined by bisection. Defaults
	// to 256.
	SweepSamples int `json:"sweep_samples,omitempty"`
	// MinGain is the smallest mean utility improvement a candidate
	// sub-schedule must offer to be kept. Defaults to 1e-9 (any strict
	// improvement).
	MinGain float64 `json:"min_gain,omitempty"`
	// EvalScenarios selects how schedules are compared during interval
	// partitioning: 1 evaluates completion times at the average execution
	// times (the paper's point estimate); larger values average over a
	// deterministic quadrature of uniform execution times, which removes
	// the point estimate's optimism near guard boundaries. Defaults to 8.
	EvalScenarios int `json:"eval_scenarios,omitempty"`
	// DisableRevival, for ablation studies, prevents sub-schedules from
	// re-admitting processes their parent dropped. The pessimistic
	// worst-case root drops generously, and reviving its victims when
	// execution runs early is the dominant source of the quasi-static
	// utility gain (see DESIGN.md); disabling it isolates the
	// contribution of pure reordering.
	DisableRevival bool `json:"disable_revival,omitempty"`
	// Workers bounds the goroutines generating one node's candidate
	// sub-schedules (one per position after the switch point). 0 selects
	// runtime.GOMAXPROCS(0); 1 forces fully serial synthesis. The tree is
	// identical for every worker count: candidate generation is
	// side-effect-free, and a single coordinator collects the candidates
	// in position order and attaches them in the serial order.
	Workers int `json:"workers,omitempty"`
	// Sink receives synthesis events (nodes expanded, memoisation
	// hits/misses, candidates kept/rejected, worker busy time). A nil sink
	// or obs.NopSink disables instrumentation. Instrumentation never
	// alters the synthesised tree.
	Sink obs.Sink `json:"-"`
}

// OptionsError reports an FTQSOptions field that fails validation, so
// callers such as the ftserved wire decoder can name the field instead of
// parsing a message — the same discipline as sim.ConfigError.
type OptionsError struct {
	// Field is the FTQSOptions field name.
	Field string
	// Value is the rejected value.
	Value float64
	// Constraint is the violated bound: "non-negative" or "finite".
	Constraint string
}

// Error implements error.
func (e *OptionsError) Error() string {
	return fmt.Sprintf("core: FTQSOptions.%s must be %s, got %v", e.Field, e.Constraint, e.Value)
}

// Validate normalises the options and rejects impossible values with an
// *OptionsError: negative SweepSamples, EvalScenarios or Workers, and a
// non-finite MinGain. Zero values are replaced by the documented defaults
// (and M < 1 by 1), so a zero FTQSOptions validates to the default
// configuration. Every synthesis entry point applies Validate, so CLI
// flags, library callers and ftserved requests get the same diagnostics.
func (o FTQSOptions) Validate() (FTQSOptions, error) {
	if o.SweepSamples < 0 {
		return o, &OptionsError{Field: "SweepSamples", Value: float64(o.SweepSamples), Constraint: "non-negative"}
	}
	if o.EvalScenarios < 0 {
		return o, &OptionsError{Field: "EvalScenarios", Value: float64(o.EvalScenarios), Constraint: "non-negative"}
	}
	if o.Workers < 0 {
		return o, &OptionsError{Field: "Workers", Value: float64(o.Workers), Constraint: "non-negative"}
	}
	if math.IsNaN(o.MinGain) || math.IsInf(o.MinGain, 0) {
		return o, &OptionsError{Field: "MinGain", Value: o.MinGain, Constraint: "finite"}
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
		n.arcs = SortArcs(n.arcs)
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
// the coordinator runs SortArcs after expanding each node).
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
// the SuffixFTSS memoization cache, the scratch of each worker and the
// sink. Candidate generation (generate/candidatesAt/makeCandidate) is a
// pure function of the immutable application, the node and the options, so
// the positions of one node are generated concurrently; only the
// coordinator loop in FTQSFromRootContext mutates the builder.
type synthesizer struct {
	app  *model.Application
	opts FTQSOptions
	memo *suffixMemo // shared across the whole tree
	// tables and evals are the per-process tables every worker reads: the
	// FTSS tables and the suffix evaluators'.
	tables *ftssTables
	evals  *evalTables
	// pricers[w] is worker w's scratch, its FTSS state included, built on
	// first use and reset by every use. par.For runs each worker index on
	// one goroutine and returns after every worker has exited, so worker
	// w of one node and worker w of the next use it one after the other.
	pricers []*pricer
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
	s := &synthesizer{
		app: app, opts: opts, memo: newSuffixMemo(),
		tables:  newFTSSTables(app),
		evals:   newEvalTables(app, opts.EvalScenarios),
		pricers: make([]*pricer, opts.Workers),
	}
	if obs.Live(opts.Sink) {
		s.sink = opts.Sink
	}
	return s
}

// pricer returns worker w's scratch.
func (s *synthesizer) pricer(w int) *pricer {
	if s.pricers[w] == nil {
		n := s.app.N()
		s.pricers[w] = &pricer{
			ftss:      newFTSSState(s.tables),
			executed:  model.NewProcSet(n),
			dropped:   model.NewProcSet(n),
			exWithout: model.NewProcSet(n),
			drWith:    model.NewProcSet(n),
			in:        model.NewProcSet(n),
			assume:    make([]bool, n),
		}
	}
	return s.pricers[w]
}

// pricer is one worker's scratch for generating and pricing the candidates
// of a position: its FTSS state, the process sets candidatesAt derives,
// the suffix evaluators and the result buffers. Everything is reset in
// place, so pricing allocates only the candidates it returns.
type pricer struct {
	ftss *ftssState
	// executed and dropped are candidatesAt's sets; exWithout and drWith
	// their FaultDropped variants; in is makeCandidate's set of processes
	// the child assumes executed.
	executed, dropped, exWithout, drWith, in model.ProcSet
	// parents[i] evaluates the parent's continuation after a position
	// under the i-th dropped-set assumption: 0 for the node's dropped set,
	// 1 with the guarded entry dropped too. Each is built on first use at
	// the position parentAt[i] and shared by every candidate there, so a
	// window one candidate walks answers the others' probes.
	parents  [2]suffixEval
	parentAt [2]parentKey
	child    suffixEval
	assume   []bool // a dropped-set assumption, handed to an evaluator
	ivs      []interval
	out      []candidate
}

// parentKey names the position a parent evaluator was built for.
type parentKey struct {
	n   *bNode
	pos int
}

// expansion is what every position of one node's expansion reads: the
// node, its dropped set, and its schedule's best-case timeline and
// worst-case completions, of which position pos reads entry pos.
type expansion struct {
	n           *bNode
	droppedBase model.ProcSet
	best        schedule.Completions
	worst       []Time
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
	nPos := len(n.Schedule.Entries) - 1 - n.SwitchPos
	if nPos <= 0 {
		return nil, nil
	}
	x := s.expand(n)
	perPos := make([][]candidate, nPos)
	err := par.For(ctx, nPos, s.opts.Workers, func(w int) func(int) error {
		pr := s.pricer(w)
		// Each position times itself when a sink is live so worker
		// utilisation (busy time vs wall clock) can be derived.
		return func(i int) error {
			if s.sink == nil {
				perPos[i] = s.candidatesAt(pr, x, n.SwitchPos+i)
				return nil
			}
			t0 := time.Now()
			perPos[i] = s.candidatesAt(pr, x, n.SwitchPos+i)
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

// expand returns what every position of n's expansion reads. Entry pos of
// a schedule's timeline depends on entries 0..pos only, so one walk over
// the schedule serves every position.
func (s *synthesizer) expand(n *bNode) *expansion {
	entries := n.Schedule.Entries
	droppedBase := droppedSet(s.app, n.Schedule)
	if n.DroppedOnFault != model.NoProcess {
		droppedBase.Add(n.DroppedOnFault)
	}
	return &expansion{
		n: n, droppedBase: droppedBase,
		best:  schedule.BestCaseCompletions(s.app, entries, 0),
		worst: schedule.WorstCaseCompletions(s.app, entries, 0, n.KRem).WorstCase,
	}
}

// candidatesAt synthesises the candidate children guarded by entry pos of
// the expanded node with the calling worker's scratch pr. Side-effect-free
// apart from pr: it reads only the immutable application and the
// expansion's immutable fields.
func (s *synthesizer) candidatesAt(pr *pricer, x *expansion, pos int) []candidate {
	app := s.app
	n := x.n
	entries := n.Schedule.Entries
	bestFinish := x.best.Finish[pos]
	bestStart := x.best.Start[pos]
	wcHi := x.worst[pos]
	e := entries[pos]
	p := app.ProcRef(e.Proc)

	executed := pr.executed
	clear(executed)
	for _, pe := range entries[:pos+1] {
		executed.Add(pe.Proc)
	}
	// A child re-optimises the remainder from scratch, so processes
	// the parent dropped become candidates again — the pessimistic
	// worst-case root drops generously, and re-admitting its
	// victims when execution runs early is the main source of the
	// quasi-static utility gain. Re-admission is only sound while
	// none of the process's successors has executed (otherwise the
	// consumer already ran on a stale value).
	dropped := pr.dropped
	clear(dropped)
	for id := 0; id < app.N(); id++ {
		pid := model.ProcessID(id)
		if !x.droppedBase.Has(pid) {
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

	pr.out = pr.out[:0]
	// (a) Completion child.
	s.addKind(pr, x, pos, Completion, bestFinish, wcHi, n.KRem, executed, dropped, model.NoProcess)

	// (b) Fault child with recovery. The earliest fault-recovered
	// completion is the best-case attempt, the per-fault overhead, and
	// the best-case re-run under the recovery model (the full BCET for
	// re-execution and restart, the final checkpoint segment otherwise).
	if e.Recoveries > 0 && n.KRem > 0 {
		rec := app.Recovery()
		lo := bestStart + rec.AttemptTime(p.BCET) + app.RecoveryOverhead(e.Proc) + rec.ResumeTime(p.BCET)
		s.addKind(pr, x, pos, FaultRecovered, lo, wcHi, n.KRem-1, executed, dropped, model.NoProcess)
	}

	// (c) Fault child with dropping (soft, no recovery budget).
	if p.Kind == model.Soft && e.Recoveries == 0 && n.KRem > 0 {
		lo := bestStart + p.BCET
		copy(pr.exWithout, executed)
		pr.exWithout.Remove(e.Proc)
		copy(pr.drWith, dropped)
		pr.drWith.Add(e.Proc)
		s.addKind(pr, x, pos, FaultDropped, lo, wcHi, n.KRem-1, pr.exWithout, pr.drWith, e.Proc)
	}
	if len(pr.out) == 0 {
		return nil
	}
	return slices.Clone(pr.out)
}

// addKind appends to pr.out the candidates of one child kind. The paper
// explores the combinations of best- and worst-case execution times: every
// child kind is synthesised twice, once for the best-possible completion
// lo and once for the worst-possible completion hi of the guarded entry
// (§5.1). A second candidate with the first one's suffix is a duplicate
// and is dropped (at most two candidates per kind, so a direct suffix
// comparison replaces any signature machinery).
func (s *synthesizer) addKind(pr *pricer, x *expansion, pos int, kind ArcKind, lo, hi Time, kRem int,
	exec, drop model.ProcSet, droppedOF model.ProcessID) {
	first := -1
	for _, genStart := range [2]Time{lo, hi} {
		if genStart < lo {
			continue
		}
		c, ok := s.makeCandidate(pr, x, pos, kind, exec, drop, lo, genStart, hi, kRem, droppedOF)
		if !ok {
			continue
		}
		if first >= 0 && sameEntries(c.suffix, pr.out[first].suffix) {
			s.count(obs.FTQSCandidatesRejected, 1)
			continue
		}
		if first < 0 {
			first = len(pr.out)
		}
		c.intervals = slices.Clone(c.intervals) // it was pr.ivs
		pr.out = append(pr.out, c)
	}
}

// suffixFTSS is SuffixFTSSSet through the memoization cache, run on the
// calling worker's FTSS state st: identical (executed set, dropped set,
// start, budget) requests across the whole tree are synthesised once.
// Returns nil when the suffix is infeasible or empty. The returned entries
// are shared and must not be mutated.
func (s *synthesizer) suffixFTSS(st *ftssState, executed, dropped model.ProcSet, start Time, kRem int) []schedule.Entry {
	key := suffixKey{
		executed: executed.Key(),
		dropped:  dropped.Key(),
		start:    start,
		kRem:     kRem,
	}
	if e, ok := s.memo.get(key); ok {
		return e
	}
	suffix, err := st.run(executed, dropped, start, kRem)
	if err != nil {
		suffix = nil
	}
	s.memo.put(key, suffix)
	return suffix
}

// makeCandidate synthesises one sub-schedule (assuming the guarded entry
// completes at genStart) and prices it with interval partitioning over the
// whole completion window [lo, hi]; false when the candidate is
// infeasible, identical to the parent's own continuation, or not a strict
// improvement anywhere. The candidate's intervals are pr.ivs, valid until
// the next call.
func (s *synthesizer) makeCandidate(pr *pricer, x *expansion, pos int, kind ArcKind,
	executed, dropped model.ProcSet, lo, genStart, hi Time, kRem int,
	droppedOF model.ProcessID) (candidate, bool) {

	app := s.app
	suffix := s.suffixFTSS(pr.ftss, executed, dropped, genStart, kRem)
	if len(suffix) == 0 {
		s.count(obs.FTQSCandidatesRejected, 1)
		return candidate{}, false
	}
	if kind == Completion && sameEntries(suffix, x.n.Schedule.Entries[pos+1:]) {
		s.count(obs.FTQSCandidatesRejected, 1)
		return candidate{}, false
	}

	parentEval := s.parentEval(pr, x.n, pos, droppedOF)
	// The child assumes everything outside the executed set and its
	// suffix dropped.
	copy(pr.in, executed)
	for _, e := range suffix {
		pr.in.Add(e.Proc)
	}
	for id := range pr.assume {
		pr.assume[id] = !pr.in.Has(model.ProcessID(id))
	}
	pr.child.reset(app, s.evals, suffix, pr.assume)
	// The worker's FTSS run is over, so its candidate prefix is free.
	pr.ivs = partitionChild(pr.ivs[:0], app, &pr.ftss.cand, parentEval, &pr.child, suffix, lo, hi, kRem, s.opts.SweepSamples)
	if len(pr.ivs) == 0 {
		s.count(obs.FTQSCandidatesRejected, 1)
		return candidate{}, false
	}
	var gain float64
	for _, iv := range pr.ivs {
		gain += iv.Gain * float64(iv.Hi-iv.Lo+1)
	}
	gain /= float64(hi - lo + 1)
	if gain < s.opts.MinGain {
		s.count(obs.FTQSCandidatesRejected, 1)
		return candidate{}, false
	}
	return candidate{
		pos: pos, kind: kind, suffix: suffix, kRem: kRem,
		droppedOF: droppedOF, intervals: pr.ivs, gain: gain,
	}, true
}

// parentEval returns pr's evaluator of n's own continuation after pos
// under the dropped-set assumption of a candidate that abandons droppedOF
// (NoProcess for none), building it on the position's first call.
func (s *synthesizer) parentEval(pr *pricer, n *bNode, pos int, droppedOF model.ProcessID) *suffixEval {
	i := 0
	if droppedOF != model.NoProcess {
		i = 1
	}
	if key := (parentKey{n, pos}); pr.parentAt[i] != key {
		droppedAssumption(pr.assume, n, droppedOF)
		pr.parents[i].reset(s.app, s.evals, n.Schedule.Entries[pos+1:], pr.assume)
		pr.parentAt[i] = key
	}
	return &pr.parents[i]
}

// droppedAssumption fills d with the dropped set under which the parent's
// own continuation is evaluated for a given scenario: the parent's dropped
// processes, plus the entry abandoned by the fault for FaultDropped arcs.
func droppedAssumption(d []bool, n *bNode, droppedOF model.ProcessID) {
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
