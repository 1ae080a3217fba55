package runtime_test

import (
	"errors"
	"math/rand"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
)

// TestNewDispatcherRejectsMalformedTrees: every class of arena corruption
// must surface as a *MalformedTreeError at construction — never a panic,
// never a silently mis-dispatching table.
func TestNewDispatcherRejectsMalformedTrees(t *testing.T) {
	app := apps.Fig1()
	fresh := func(t *testing.T) *core.Tree {
		tree, err := core.FTQS(app, core.FTQSOptions{M: 8})
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	for _, tc := range []struct {
		name    string
		corrupt func(tree *core.Tree)
	}{
		{"nil tree", func(tree *core.Tree) { *tree = core.Tree{} }},
		{"no nodes", func(tree *core.Tree) { tree.Nodes = nil }},
		{"nil root schedule", func(tree *core.Tree) { tree.Nodes[0].Schedule = nil }},
		{"nil child schedule", func(tree *core.Tree) { tree.Nodes[len(tree.Nodes)-1].Schedule = nil }},
		{"entry proc out of range", func(tree *core.Tree) {
			tree.Nodes[0].Schedule.Entries[0].Proc = model.ProcessID(app.N())
		}},
		{"negative recovery budget", func(tree *core.Tree) {
			tree.Nodes[0].Schedule.Entries[0].Recoveries = -1
		}},
		{"arc range outside arena", func(tree *core.Tree) {
			tree.Nodes[0].ArcEnd = int32(len(tree.Arcs) + 3)
		}},
		{"inverted arc range", func(tree *core.Tree) {
			tree.Nodes[0].ArcStart, tree.Nodes[0].ArcEnd = 2, 0
		}},
		{"dangling arc child", func(tree *core.Tree) {
			tree.Arcs[0].Child = core.NodeID(len(tree.Nodes))
		}},
		{"negative arc child", func(tree *core.Tree) { tree.Arcs[0].Child = -7 }},
		{"arc position out of range", func(tree *core.Tree) {
			tree.Arcs[0].Pos = len(tree.Nodes[0].Schedule.Entries)
		}},
		{"parent out of range", func(tree *core.Tree) {
			tree.Nodes[1].Parent = core.NodeID(len(tree.Nodes))
		}},
		{"cyclic parent chain", func(tree *core.Tree) { tree.Nodes[1].Parent = 1 }},
		{"dropped marker out of range", func(tree *core.Tree) {
			tree.Nodes[1].DroppedOnFault = model.ProcessID(app.N() + 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree := fresh(t)
			if len(tree.Nodes) < 2 || len(tree.Arcs) == 0 {
				t.Fatalf("fixture tree too small for corruption cases: %d nodes, %d arcs",
					len(tree.Nodes), len(tree.Arcs))
			}
			tc.corrupt(tree)
			d, err := runtime.NewDispatcher(tree)
			var mte *runtime.MalformedTreeError
			if !errors.As(err, &mte) {
				t.Fatalf("err = %v (dispatcher %v), want *MalformedTreeError", err, d != nil)
			}
			if mte.Error() == "" || errors.Unwrap(mte) == nil {
				t.Errorf("error carries no detail: %+v", mte)
			}
		})
	}
}

// TestDispatcherRootFallback: when the compiled table is corrupted after
// construction (simulated via the CorruptSegments test hook), a mid-cycle
// switch to an unusable node must fall back to the root f-schedule,
// counting the event on the Result and the sink instead of crashing — and
// the hard guarantee of the root schedule must still hold.
func TestDispatcherRootFallback(t *testing.T) {
	app := apps.Fig1()
	tree, err := core.FTQS(app, core.FTQSOptions{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	d := runtime.MustNewDispatcher(tree, runtime.WithSink(m))
	d.CorruptSegments(core.NodeID(len(tree.Nodes) + 5)) // every switch target out of range

	rng := rand.New(rand.NewSource(7))
	fellBack := 0
	for i := 0; i < 200; i++ {
		sc := mustSample(app, rng, i%(app.K()+1))
		res, err := d.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fallbacks > 0 {
			fellBack += res.Fallbacks
			if res.FinalNode != 0 {
				t.Errorf("scenario %d: fallback ended on node %d, want root", i, res.FinalNode)
			}
		}
		if len(res.HardViolations) != 0 {
			t.Errorf("scenario %d: hard violation despite root fallback", i)
		}
	}
	if fellBack == 0 {
		t.Fatal("corrupted table never triggered the root fallback")
	}
	if got := m.Counter(obs.DispatchGuardFallbacks); got != int64(fellBack) {
		t.Errorf("DispatchGuardFallbacks = %d, want %d", got, fellBack)
	}
}
