package sim

import (
	"context"
	"fmt"
	"sort"

	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
)

// TrimConfig parametrises simulation-based arc trimming.
type TrimConfig struct {
	// Scenarios is the number of paired scenarios evaluated per fault
	// count (common random numbers: the same scenarios score every
	// candidate tree, so comparisons are noise-free).
	Scenarios int
	// Faults lists the fault counts to weigh (equally); nil means
	// 0..k.
	Faults []int
	// Seed makes trimming reproducible.
	Seed int64
	// Sink receives trimming events (arcs evaluated/removed, scenario
	// replays). A nil sink or obs.NopSink disables instrumentation.
	Sink obs.Sink
}

// Trim removes switch arcs whose measured effect on the mean utility is
// non-positive. Interval partitioning prices candidate arcs with an
// estimate (the completion-time sweep under the duration quadrature);
// estimation error lets marginally harmful arcs into large trees, which is
// why the utility-vs-tree-size curve can sag after its peak. Trim replays
// a fixed scenario set with and without each arc — ascending by estimated
// gain, so the most suspect arcs go first — keeps a removal only when it
// does not reduce the mean utility, prunes nodes that became unreachable,
// and renumbers the remainder. Safety is untouched: removing arcs only
// makes the online scheduler more conservative (staying with the current
// schedule is always safe), and the result still passes core.VerifyTree.
//
// Disabled arcs are marked with an empty guard (Lo > Hi) directly in the
// arc arena; the dispatcher's compiler skips them, so each evaluation
// recompiles the mutated tree once and then replays all scenarios through
// the compiled table.
//
// It returns the number of arcs removed.
func Trim(tree *core.Tree, cfg TrimConfig) (int, error) {
	return TrimContext(context.Background(), tree, cfg)
}

// TrimContext is Trim honouring cancellation, checked before every scenario
// replay. On cancellation every already-disabled guard is restored — the
// tree is left exactly as passed in — and (0, ctx.Err()) is returned.
func TrimContext(ctx context.Context, tree *core.Tree, cfg TrimConfig) (int, error) {
	if cfg.Scenarios <= 0 {
		return 0, fmt.Errorf("sim: Trim needs a positive scenario count")
	}
	app := tree.App
	faults := cfg.Faults
	if faults == nil {
		for f := 0; f <= app.K(); f++ {
			faults = append(faults, f)
		}
	}
	for _, f := range faults {
		if f < 0 || f > app.K() {
			return 0, fmt.Errorf("sim: fault count %d outside [0,%d]", f, app.K())
		}
	}

	// Fixed paired scenario set: scenario j is drawn from its own
	// ScenarioSeed stream, like every other evaluation in this package.
	candidates := rootVictims(tree)
	scenarios := make([]Scenario, len(faults)*cfg.Scenarios)
	for j := range scenarios {
		rng := NewRNG(ScenarioSeed(cfg.Seed, j))
		if err := SampleRNGInto(&scenarios[j], app, &rng, faults[j/cfg.Scenarios], candidates); err != nil {
			return 0, err
		}
	}
	var sink obs.Sink
	if obs.Live(cfg.Sink) {
		sink = cfg.Sink
	}
	done := ctx.Done()
	var res runtime.Result
	// eval replays the fixed scenario set through a freshly compiled
	// dispatcher; it returns ctx.Err() when cancelled mid-replay (the
	// partial mean is meaningless then) or the dispatcher's typed error
	// for a tree that went structurally bad.
	eval := func() (float64, error) {
		d, err := runtime.NewDispatcher(tree)
		if err != nil {
			return 0, err
		}
		var sum float64
		for i := range scenarios {
			select {
			case <-done:
				return 0, ctx.Err()
			default:
			}
			if err := d.RunInto(&res, scenarios[i]); err != nil {
				return 0, err
			}
			sum += res.Utility
		}
		if sink != nil {
			sink.Add(obs.TrimReplays, int64(len(scenarios)))
		}
		return sum / float64(len(scenarios)), nil
	}

	// Arc references into the arena, most suspect (lowest estimated
	// gain) first. The arena is node-major, so index order matches the
	// node-by-node walk the gain sort is stabilised against.
	refs := make([]int, len(tree.Arcs))
	for i := range refs {
		refs[i] = i
	}
	sort.SliceStable(refs, func(a, b int) bool {
		return tree.Arcs[refs[a]].Gain < tree.Arcs[refs[b]].Gain
	})

	baseline, err := eval()
	if err != nil {
		return 0, err
	}
	type disabledArc struct {
		ri     int
		lo, hi model.Time
	}
	var disabled []disabledArc
	restore := func() {
		for _, s := range disabled {
			tree.Arcs[s.ri].Lo, tree.Arcs[s.ri].Hi = s.lo, s.hi
		}
	}
	for _, ri := range refs {
		a := &tree.Arcs[ri]
		savedLo, savedHi := a.Lo, a.Hi
		a.Lo, a.Hi = 1, 0 // empty guard: the arc can never fire
		if sink != nil {
			sink.Add(obs.TrimArcsEvaluated, 1)
		}
		u, err := eval()
		if err != nil {
			a.Lo, a.Hi = savedLo, savedHi
			restore()
			return 0, err
		}
		if u >= baseline {
			baseline = u
			disabled = append(disabled, disabledArc{ri: ri, lo: savedLo, hi: savedHi})
			continue
		}
		a.Lo, a.Hi = savedLo, savedHi
	}
	removed := len(disabled)
	if sink != nil {
		sink.Add(obs.TrimArcsRemoved, int64(removed))
	}
	if removed == 0 {
		return 0, nil
	}

	compactTree(tree)
	return removed, nil
}

// compactTree drops disabled arcs (empty guards), prunes nodes no longer
// reachable from the root, and rebuilds both arenas with renumbered IDs.
func compactTree(tree *core.Tree) {
	// Reachability over node indices, following live arcs only. A child
	// is reachable only through arcs of its single parent, so pruning
	// can never orphan a kept node's Parent reference.
	reachable := make([]bool, len(tree.Nodes))
	reachable[0] = true
	queue := []core.NodeID{0}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, a := range tree.NodeArcs(id) {
			if a.Lo <= a.Hi && !reachable[a.Child] {
				reachable[a.Child] = true
				queue = append(queue, a.Child)
			}
		}
	}
	remap := make([]core.NodeID, len(tree.Nodes))
	kept := 0
	for i := range tree.Nodes {
		if reachable[i] {
			remap[i] = core.NodeID(kept)
			kept++
		} else {
			remap[i] = core.NoNode
		}
	}
	newNodes := make([]core.Node, 0, kept)
	newArcs := make([]core.Arc, 0, len(tree.Arcs))
	for i := range tree.Nodes {
		if !reachable[i] {
			continue
		}
		n := tree.Nodes[i]
		start := int32(len(newArcs))
		for _, a := range tree.NodeArcs(core.NodeID(i)) {
			if a.Lo > a.Hi {
				continue
			}
			a.Child = remap[a.Child]
			newArcs = append(newArcs, a)
		}
		n.ArcStart, n.ArcEnd = start, int32(len(newArcs))
		if n.Parent != core.NoNode {
			n.Parent = remap[n.Parent]
		}
		newNodes = append(newNodes, n)
	}
	tree.Nodes = newNodes
	tree.Arcs = newArcs
}
