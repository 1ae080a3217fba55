package core

import (
	"context"
	"math/rand"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/gen"
	"ftsched/internal/model"
)

// requireTreesEqual compares two quasi-static trees entry for entry and
// arc for arc — the contract of FTQSOptions.Workers is that the produced
// tree is bit-identical for every worker count.
func requireTreesEqual(t *testing.T, label string, a, b *Tree) {
	t.Helper()
	if a.Size() != b.Size() {
		t.Fatalf("%s: tree sizes differ: %d vs %d", label, a.Size(), b.Size())
	}
	for i := range a.Nodes {
		na, nb := &a.Nodes[i], &b.Nodes[i]
		if na.SwitchPos != nb.SwitchPos ||
			na.KRem != nb.KRem || na.Depth != nb.Depth ||
			na.DroppedOnFault != nb.DroppedOnFault {
			t.Fatalf("%s: node %d headers differ: %+v vs %+v", label, i, na, nb)
		}
		if na.Parent != nb.Parent {
			t.Fatalf("%s: node %d parents differ: S%d vs S%d",
				label, i, na.Parent, nb.Parent)
		}
		if !sameEntries(na.Schedule.Entries, nb.Schedule.Entries) {
			t.Fatalf("%s: node %d schedules differ:\n%v\n%v",
				label, i, na.Schedule.Entries, nb.Schedule.Entries)
		}
		arcsA, arcsB := a.NodeArcs(NodeID(i)), b.NodeArcs(NodeID(i))
		if len(arcsA) != len(arcsB) {
			t.Fatalf("%s: node %d arc counts differ: %d vs %d",
				label, i, len(arcsA), len(arcsB))
		}
		for j := range arcsA {
			if arcsA[j] != arcsB[j] {
				t.Fatalf("%s: node %d arc %d differs: %+v vs %+v",
					label, i, j, arcsA[j], arcsB[j])
			}
		}
	}
}

// TestFTQSParallelDeterminism: the parallel synthesis (Workers > 1) must
// produce a tree entry-for-entry identical to the serial one (Workers = 1)
// — on the paper's fixtures and on generated applications. Run under
// -race this also audits the position fan-out and the memoization cache.
func TestFTQSParallelDeterminism(t *testing.T) {
	type testApp struct {
		name string
		app  *model.Application
		m    int
	}
	cases := []testApp{
		{"fig1", apps.Fig1(), 12},
		{"fig8", apps.Fig8(), 40},
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{15, 20} {
		for attempt := 0; attempt < 30; attempt++ {
			app, err := gen.Generate(rng, gen.Default(n))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := FTSS(app); err != nil {
				continue
			}
			cases = append(cases, testApp{app.Name(), app, 16})
			break
		}
	}
	if len(cases) < 4 {
		t.Fatal("could not generate two schedulable applications")
	}
	for _, tc := range cases {
		serial, err := FTQS(tc.app, FTQSOptions{M: tc.m, Workers: 1})
		if err != nil {
			t.Fatalf("%s: serial: %v", tc.name, err)
		}
		for _, w := range []int{2, 4, 8} {
			par, err := FTQS(tc.app, FTQSOptions{M: tc.m, Workers: w})
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", tc.name, w, err)
			}
			requireTreesEqual(t, tc.name, serial, par)
		}
	}
}

// TestFTQSParallelGoldenTree: the paper-mode golden tree of the running
// example survives parallel synthesis unchanged.
func TestFTQSParallelGoldenTree(t *testing.T) {
	app := apps.Fig1()
	serial, err := FTQS(app, FTQSOptions{M: 4, EvalScenarios: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := FTQS(app, FTQSOptions{M: 4, EvalScenarios: 1, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Format() != par.Format() {
		t.Errorf("parallel golden tree drifted:\n--- serial ---\n%s--- parallel ---\n%s",
			serial.Format(), par.Format())
	}
}

// procSetOf builds a ProcSet over n processes from explicit members.
func procSetOf(n int, ids ...model.ProcessID) model.ProcSet {
	s := model.NewProcSet(n)
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// TestSuffixMemo: identical (executed set, dropped set, start, budget)
// requests hit the cache; differing inputs miss.
func TestSuffixMemo(t *testing.T) {
	app := apps.Fig8()
	s := newSynthesizer(app, FTQSOptions{M: 4}.withDefaults())

	st := s.pricer(0).ftss
	n := app.N()
	p0 := model.ProcessID(0)
	p1 := model.ProcessID(1)
	first := s.suffixFTSS(st, procSetOf(n, p0, p1), procSetOf(n), 100, 1)
	second := s.suffixFTSS(st, procSetOf(n, p1, p0), procSetOf(n), 100, 1) // same set, fresh ProcSet value
	if !sameEntries(first, second) {
		t.Error("memoized suffix differs for the same executed set")
	}
	hits, misses := s.memo.stats()
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	// A different start time is a different synthesis.
	s.suffixFTSS(st, procSetOf(n, p0, p1), procSetOf(n), 101, 1)
	if h, m := s.memo.stats(); h != 1 || m != 2 {
		t.Errorf("hits=%d misses=%d after new start, want 1/2", h, m)
	}
	// A different dropped set is a different synthesis.
	s.suffixFTSS(st, procSetOf(n, p0), procSetOf(n, p1), 100, 1)
	if h, m := s.memo.stats(); h != 1 || m != 3 {
		t.Errorf("hits=%d misses=%d after new dropped set, want 1/3", h, m)
	}
}

// TestSuffixMemoKeyAllocs: forming the memo key from ProcSets and probing
// the cache must not allocate — the string-keyed cache this replaced
// built a fresh key string per lookup.
func TestSuffixMemoKeyAllocs(t *testing.T) {
	app := apps.CruiseController()
	n := app.N()
	executed := procSetOf(n, 0, 3, 7, 12)
	dropped := procSetOf(n, 20, 25)
	memo := newSuffixMemo()
	memo.put(suffixKey{executed: executed.Key(), dropped: dropped.Key(), start: 100, kRem: 1}, nil)
	allocs := testing.AllocsPerRun(100, func() {
		key := suffixKey{
			executed: executed.Key(),
			dropped:  dropped.Key(),
			start:    100,
			kRem:     1,
		}
		if _, ok := memo.get(key); !ok {
			t.Fatal("lookup missed")
		}
	})
	if allocs != 0 {
		t.Errorf("memo key construction + lookup allocates %.1f times per run, want 0", allocs)
	}
}

// TestSuffixMemoHitsDuringSynthesis: a real tree synthesis must actually
// exercise the cache (sibling candidates re-request identical suffixes).
func TestSuffixMemoHitsDuringSynthesis(t *testing.T) {
	app := apps.Fig8()
	opts := FTQSOptions{M: 40}.withDefaults()
	s := newSynthesizer(app, opts)
	root, err := FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	b := &treeBuilder{app: app}
	b.add(&bNode{Node: Node{
		Schedule: root, KRem: app.K(),
		DroppedOnFault: model.NoProcess, Parent: NoNode,
	}})
	for len(b.nodes) < opts.M {
		n := b.pickNext()
		if n == nil {
			break
		}
		cands, err := s.generate(context.Background(), n)
		if err != nil {
			t.Fatal(err)
		}
		n.expanded = true
		for _, c := range cands {
			if len(b.nodes) >= opts.M {
				break
			}
			b.attachChild(n, c)
		}
		n.arcs = SortArcs(n.arcs)
	}
	hits, misses := s.memo.stats()
	if misses == 0 {
		t.Fatal("memo never consulted")
	}
	if hits == 0 {
		t.Error("memo never hit during a 40-node synthesis")
	}
}
