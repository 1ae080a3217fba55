package core

import (
	"strings"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/model"
	"ftsched/internal/schedule"
	"ftsched/internal/utility"
)

// TestFTQSFig1Tree checks the quasi-static tree for the paper's running
// example against the Fig. 5 discussion. Our root is the average-case
// optimal FTSS order P1, P3, P2; the paper presents the same two group-1
// schedules with the complementary labelling: its S1_1 = (P1, P2, P3) is
// used when P1 completes early and it switches to S2_1 = (P1, P3, P2) when
// t_c(P1) > 40. Here that surfaces as a completion child with suffix
// (P2, P3) whose guard must end at exactly t_c(P1) = 40.
func TestFTQSFig1Tree(t *testing.T) {
	app := apps.Fig1()
	// EvalScenarios 1 selects the paper's average-execution-time point
	// estimate, under which the guard boundary is exactly tc(P1) = 40.
	tree, err := FTQS(app, FTQSOptions{M: 12, EvalScenarios: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Size() < 2 {
		t.Fatalf("tree has %d nodes, want at least 2", tree.Size())
	}
	root := tree.Root()
	if !orderIs(app, root.Schedule.Entries, "P1", "P3", "P2") {
		t.Fatalf("root order = %v", names(app, root.Schedule.Entries))
	}

	// Find the completion arc after P1 (pos 0).
	rootArcs := tree.NodeArcs(0)
	var arc *Arc
	for i := range rootArcs {
		a := &rootArcs[i]
		if a.Pos == 0 && a.Kind == Completion {
			arc = a
			break
		}
	}
	if arc == nil {
		t.Fatalf("no completion arc after P1; tree:\n%s", tree.Format())
	}
	child := &tree.Nodes[arc.Child]
	if !orderIs(app, child.Schedule.Entries[1:], "P2", "P3") {
		t.Errorf("child suffix = %v, want [P2 P3]", names(app, child.Schedule.Entries[1:]))
	}
	// The switch is profitable exactly for tc(P1) in [30, 40]: at 40 the
	// P2-first order yields U2(90)+U3(150) = 70 > 60, at 41 it collapses
	// to 30 (paper: "If process P1 completes after 40, the scheduler
	// switches to [the P3-first schedule]").
	if arc.Lo != 30 || arc.Hi != 40 {
		t.Errorf("guard = [%d,%d], want [30,40]", arc.Lo, arc.Hi)
	}
	// A fault arc after P1 must exist too (group 2 of Fig. 5): with the
	// fault budget consumed, late re-execution completions favour P2
	// first or drop a soft process.
	hasFault := false
	for _, a := range rootArcs {
		if a.Kind == FaultRecovered && a.Pos == 0 {
			hasFault = true
			if tree.Nodes[a.Child].KRem != 0 {
				t.Errorf("fault child KRem = %d, want 0", tree.Nodes[a.Child].KRem)
			}
		}
	}
	if !hasFault {
		t.Logf("tree:\n%s", tree.Format())
		t.Error("no FaultRecovered arc after P1")
	}
}

// TestFTQSSafetyOfGuards: every arc guard must keep the child schedulable
// at the guard's upper bound — the safety bound t_i^c of §5.1.
func TestFTQSSafetyOfGuards(t *testing.T) {
	for _, app := range []*model.Application{apps.Fig1(), apps.Fig8(), apps.Fig1ReducedPeriod()} {
		tree, err := FTQS(app, FTQSOptions{M: 30})
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		for id := range tree.Nodes {
			n := &tree.Nodes[id]
			for _, a := range tree.NodeArcs(NodeID(id)) {
				child := &tree.Nodes[a.Child]
				suffix := child.Schedule.Entries[child.SwitchPos:]
				if !schedule.Schedulable(app, suffix, a.Hi, child.KRem) {
					t.Errorf("%s: arc to S%d unsafe at guard end %d", app.Name(), a.Child, a.Hi)
				}
				if a.Lo > a.Hi {
					t.Errorf("%s: empty guard [%d,%d]", app.Name(), a.Lo, a.Hi)
				}
				if a.Pos >= len(n.Schedule.Entries) {
					t.Errorf("%s: arc position %d out of range", app.Name(), a.Pos)
				}
			}
		}
	}
}

// TestFTQSTreeInvariants: structural invariants of the tree for all paper
// fixtures — root first, prefixes shared with parents, fault children lose
// exactly one unit of budget, sizes respect M, arc ranges dense and in the
// canonical order.
func TestFTQSTreeInvariants(t *testing.T) {
	app := apps.Fig8()
	for _, m := range []int{1, 2, 3, 5, 10, 40} {
		tree, err := FTQS(app, FTQSOptions{M: m})
		if err != nil {
			t.Fatal(err)
		}
		if tree.Size() > m {
			t.Errorf("M=%d: size %d exceeds limit", m, tree.Size())
		}
		prevEnd := int32(0)
		for i := range tree.Nodes {
			n := &tree.Nodes[i]
			if n.ArcStart != prevEnd || n.ArcEnd < n.ArcStart {
				t.Errorf("node %d arc range [%d,%d) not dense after %d", i, n.ArcStart, n.ArcEnd, prevEnd)
			}
			prevEnd = n.ArcEnd
			arcs := tree.NodeArcs(NodeID(i))
			for j := 1; j < len(arcs); j++ {
				a, b := arcs[j-1], arcs[j]
				if a.Pos > b.Pos || (a.Pos == b.Pos && a.Kind > b.Kind) ||
					(a.Pos == b.Pos && a.Kind == b.Kind && a.Gain < b.Gain) {
					t.Errorf("node %d arcs %d,%d violate canonical order", i, j-1, j)
				}
			}
			if i == 0 {
				if n != tree.Root() || n.Parent != NoNode || n.Depth != 0 {
					t.Error("malformed root")
				}
				continue
			}
			if n.Parent == NoNode {
				t.Errorf("node %d has no parent", i)
				continue
			}
			parent := &tree.Nodes[n.Parent]
			if n.Depth != parent.Depth+1 {
				t.Errorf("node %d depth %d, parent depth %d", i, n.Depth, parent.Depth)
			}
			if n.KRem != parent.KRem && n.KRem != parent.KRem-1 {
				t.Errorf("node %d KRem %d vs parent %d", i, n.KRem, parent.KRem)
			}
			// Shared prefix with parent, except a FaultDropped entry.
			for j := 0; j < n.SwitchPos && j < len(parent.Schedule.Entries); j++ {
				if n.Schedule.Entries[j] != parent.Schedule.Entries[j] {
					t.Errorf("node %d prefix diverges from parent at %d", i, j)
				}
			}
		}
		if int(prevEnd) != len(tree.Arcs) {
			t.Errorf("M=%d: arc arena has %d entries, node ranges cover %d", m, len(tree.Arcs), prevEnd)
		}
	}
}

// TestFTQSM1IsFTSS: a tree bounded to one schedule is exactly the FTSS
// schedule with no arcs — the baseline row of the paper's Table 1.
func TestFTQSM1IsFTSS(t *testing.T) {
	app := apps.Fig1()
	tree, err := FTQS(app, FTQSOptions{M: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Size() != 1 {
		t.Fatalf("size = %d, want 1", tree.Size())
	}
	if len(tree.NodeArcs(0)) != 0 {
		t.Errorf("root has %d arcs, want 0", len(tree.NodeArcs(0)))
	}
	ftss, err := FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEntries(tree.Root().Schedule.Entries, ftss.Entries) {
		t.Error("M=1 root differs from FTSS")
	}
}

// TestFTQSMonotoneSize: growing M never shrinks the tree.
func TestFTQSMonotoneSize(t *testing.T) {
	app := apps.Fig8()
	prev := 0
	for _, m := range []int{1, 2, 4, 8, 16, 32} {
		tree, err := FTQS(app, FTQSOptions{M: m})
		if err != nil {
			t.Fatal(err)
		}
		if tree.Size() < prev {
			t.Errorf("M=%d: size %d < previous %d", m, tree.Size(), prev)
		}
		prev = tree.Size()
	}
}

// TestFTQSUnschedulable propagates FTSS failure.
func TestFTQSUnschedulable(t *testing.T) {
	a := model.NewApplication("un", 1000, 2, 10)
	a.AddProcess(model.Process{Name: "H", Kind: model.Hard, BCET: 50, AET: 60, WCET: 80, Deadline: 100})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := FTQS(a, FTQSOptions{M: 5}); err == nil {
		t.Fatal("expected unschedulable")
	}
}

// TestFTQSFromRootValidation rejects broken roots.
func TestFTQSFromRootValidation(t *testing.T) {
	app := apps.Fig1()
	bad := &schedule.FSchedule{Entries: []schedule.Entry{
		{Proc: app.IDByName("P2")}, // hard P1 missing
	}}
	if _, err := FTQSFromRoot(app, bad, FTQSOptions{M: 3}); err == nil {
		t.Error("invalid root accepted")
	}
	// Structurally valid but not schedulable for k: P1 with recoveries
	// but deadline too tight cannot be constructed here (Validate
	// requires k recoveries), so instead check an over-tight period via
	// an artificial application.
	tight := model.NewApplication("tight", 90, 1, 10)
	h := tight.AddProcess(model.Process{Name: "H", Kind: model.Hard, BCET: 30, AET: 40, WCET: 50, Deadline: 90})
	if err := tight.Validate(); err != nil {
		t.Fatal(err)
	}
	root := &schedule.FSchedule{Entries: []schedule.Entry{{Proc: h, Recoveries: 1}}}
	if _, err := FTQSFromRoot(tight, root, FTQSOptions{M: 3}); err == nil {
		t.Error("unschedulable root accepted")
	}
}

// TestTreeNext exercises the online switching policy.
func TestTreeNext(t *testing.T) {
	app := apps.Fig1()
	tree, err := FTQS(app, FTQSOptions{M: 12})
	if err != nil {
		t.Fatal(err)
	}
	const root NodeID = 0
	// Early completion of P1 must switch to the P2-first child.
	n := tree.Next(root, 0, 30, CompletedOK)
	if n == root {
		t.Fatal("no switch for early completion")
	}
	if !orderIs(app, tree.Nodes[n].Schedule.Entries[1:], "P2", "P3") {
		t.Errorf("switched to %v", names(app, tree.Nodes[n].Schedule.Entries))
	}
	// Past the guard, stay.
	if got := tree.Next(root, 0, 41, CompletedOK); got != root {
		t.Errorf("unexpected switch at tc=41 to S%d", got)
	}
	// Unknown positions and outcomes stay put.
	if got := tree.Next(root, 2, 500, CompletedOK); got != root {
		t.Error("switch on last entry?")
	}
	if got := tree.Next(root, 0, 30, DroppedByFault); got != root {
		t.Error("hard process cannot be dropped; no FaultDropped arc may match")
	}
}

// TestArcKindString and tree formatting smoke test.
func TestFormatting(t *testing.T) {
	if Completion.String() != "completion" ||
		FaultRecovered.String() != "fault-recovered" ||
		FaultDropped.String() != "fault-dropped" {
		t.Error("ArcKind strings")
	}
	if got := ArcKind(9).String(); got != "ArcKind(9)" {
		t.Errorf("ArcKind(9) = %q", got)
	}
	app := apps.Fig1()
	tree, err := FTQS(app, FTQSOptions{M: 4})
	if err != nil {
		t.Fatal(err)
	}
	f := tree.Format()
	if !strings.Contains(f, "S0") || !strings.Contains(f, "P1") {
		t.Errorf("Format output suspicious:\n%s", f)
	}
}

// TestFTQSFaultDroppedChild: a soft process without recovery budget gets a
// FaultDropped child whose suffix was synthesised with it dropped.
func TestFTQSFaultDroppedChild(t *testing.T) {
	// Build an app where a soft process sits in the middle and has no
	// spare slack for recoveries, followed by more soft work.
	a := model.NewApplication("fd", 300, 1, 10)
	h := a.AddProcess(model.Process{Name: "H", Kind: model.Hard, BCET: 40, AET: 60, WCET: 80, Deadline: 170})
	s1 := a.AddProcess(model.Process{Name: "S1", Kind: model.Soft, BCET: 40, AET: 60, WCET: 80,
		Utility: utility.MustStep([]model.Time{150, 250}, []float64{50, 25})})
	s2 := a.AddProcess(model.Process{Name: "S2", Kind: model.Soft, BCET: 30, AET: 40, WCET: 60,
		Utility: utility.MustStep([]model.Time{200, 280}, []float64{40, 15})})
	a.MustAddEdge(h, s1)
	a.MustAddEdge(s1, s2)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	tree, err := FTQS(a, FTQSOptions{M: 20})
	if err != nil {
		t.Fatal(err)
	}
	_ = s1
	_ = s2
	for i := range tree.Nodes {
		n := &tree.Nodes[i]
		if n.DroppedOnFault != model.NoProcess {
			if a.Proc(n.DroppedOnFault).Kind != model.Soft {
				t.Error("FaultDropped child for a hard process")
			}
			if n.Schedule.Contains(n.DroppedOnFault) {
				// The dropped entry stays in the prefix for
				// bookkeeping; it must not reappear in the suffix.
				idx := n.Schedule.IndexOf(n.DroppedOnFault)
				if idx >= n.SwitchPos {
					t.Error("dropped process scheduled in suffix")
				}
			}
		}
	}
}

// TestFTQSFig1GoldenTree locks the paper-mode (EvalScenarios = 1) tree for
// the running example: the root order, the guard boundary at tc(P1) = 40
// and the fault group are all stated in the paper's Fig. 5 narrative, so a
// change in this rendering means the reproduction changed behaviour.
func TestFTQSFig1GoldenTree(t *testing.T) {
	app := apps.Fig1()
	tree, err := FTQS(app, FTQSOptions{M: 4, EvalScenarios: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := tree.Format()
	want := "" +
		"S0   depth=0 kRem=1  P1(f=1) P3 P2(f=1)\n" +
		"     after P1 (completion) tc in [30,40] -> S2 (gain 10.00)\n" +
		"     after P1 (completion) tc in [141,150] -> S3 (gain 10.00)\n" +
		"     after P1 (fault-recovered) tc in [141,150] -> S1 (gain 10.00)\n" +
		"S1   depth=1 kRem=0  P1(f=1) P2 | dropped: P3\n" +
		"S2   depth=1 kRem=1  P1(f=1) P2 P3(f=1)\n" +
		"S3   depth=1 kRem=1  P1(f=1) P2 | dropped: P3\n"
	if got != want {
		t.Errorf("golden tree changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFTQSLayeredExpansion: with a generous M the synthesis expands beyond
// the first layer (sub-schedules of sub-schedules, paper §5.1), the deep
// nodes still verify, and exploration saturates — growing M further adds
// nothing once every combination is covered.
func TestFTQSLayeredExpansion(t *testing.T) {
	app := apps.Fig8()
	tree, err := FTQS(app, FTQSOptions{M: 40})
	if err != nil {
		t.Fatal(err)
	}
	maxDepth := 0
	for i := range tree.Nodes {
		if tree.Nodes[i].Depth > maxDepth {
			maxDepth = tree.Nodes[i].Depth
		}
	}
	if maxDepth < 2 {
		t.Errorf("max depth = %d, want multi-layer expansion", maxDepth)
	}
	if err := VerifyTree(tree); err != nil {
		t.Errorf("deep tree fails verification: %v", err)
	}
	bigger, err := FTQS(app, FTQSOptions{M: 100})
	if err != nil {
		t.Fatal(err)
	}
	if bigger.Size() != tree.Size() {
		t.Errorf("exploration did not saturate: %d vs %d nodes", bigger.Size(), tree.Size())
	}
}
