package model

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ftsched/internal/utility"
)

func u(v float64, until Time) utility.Function {
	return utility.MustStep([]Time{until}, []float64{v})
}

// fig1App builds the application of the paper's Fig. 1: P1 hard (d=180),
// P2 and P3 soft, edges P1->P2 and P1->P3, T=300, k=1, µ=10.
func fig1App(t *testing.T) (*Application, [3]ProcessID) {
	t.Helper()
	a := NewApplication("fig1", 300, 1, 10)
	p1 := a.AddProcess(Process{Name: "P1", Kind: Hard, BCET: 30, AET: 50, WCET: 70, Deadline: 180})
	p2 := a.AddProcess(Process{Name: "P2", Kind: Soft, BCET: 30, AET: 50, WCET: 70, Utility: u(40, 90)})
	p3 := a.AddProcess(Process{Name: "P3", Kind: Soft, BCET: 40, AET: 60, WCET: 80, Utility: u(40, 110)})
	a.MustAddEdge(p1, p2)
	a.MustAddEdge(p1, p3)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a, [3]ProcessID{p1, p2, p3}
}

func TestFig1Application(t *testing.T) {
	a, ids := fig1App(t)
	if a.N() != 3 {
		t.Fatalf("N = %d, want 3", a.N())
	}
	if got := a.Proc(ids[0]).Deadline; got != 180 {
		t.Errorf("P1 deadline = %d, want 180", got)
	}
	if a.Period() != 300 || a.K() != 1 || a.Mu() != 10 {
		t.Errorf("T/k/µ = %d/%d/%d, want 300/1/10", a.Period(), a.K(), a.Mu())
	}
	if got := len(a.HardIDs()); got != 1 {
		t.Errorf("hard count = %d, want 1", got)
	}
	if got := len(a.SoftIDs()); got != 2 {
		t.Errorf("soft count = %d, want 2", got)
	}
	if got := a.Topo()[0]; got != ids[0] {
		t.Errorf("topo[0] = %d, want P1", got)
	}
	if len(a.Sources()) != 1 {
		t.Errorf("sources = %v, want [P1]", a.Sources())
	}
	if a.IsPolar() {
		t.Error("fig1 graph has two sinks; IsPolar should be false")
	}
	if got := a.IDByName("P3"); got != ids[2] {
		t.Errorf("IDByName(P3) = %d, want %d", got, ids[2])
	}
	if got := a.IDByName("nope"); got != NoProcess {
		t.Errorf("IDByName(nope) = %d, want NoProcess", got)
	}
	if got := a.TotalWCET(); got != 220 {
		t.Errorf("TotalWCET = %d, want 220", got)
	}
	if !strings.Contains(a.String(), "3 processes") {
		t.Errorf("String() = %q", a.String())
	}
}

func TestMuOfOverride(t *testing.T) {
	a := NewApplication("mu", 100, 1, 15)
	p1 := a.AddProcess(Process{Name: "A", Kind: Hard, BCET: 1, AET: 2, WCET: 3, Deadline: 50})
	p2 := a.AddProcess(Process{Name: "B", Kind: Hard, BCET: 1, AET: 2, WCET: 30, Deadline: 90, Mu: 3})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := a.MuOf(p1); got != 15 {
		t.Errorf("MuOf(A) = %d, want default 15", got)
	}
	if got := a.MuOf(p2); got != 3 {
		t.Errorf("MuOf(B) = %d, want override 3", got)
	}
}

func TestValidateErrors(t *testing.T) {
	mk := func(mod func(*Application)) error {
		a := NewApplication("x", 100, 1, 5)
		mod(a)
		return a.Validate()
	}
	cases := []struct {
		name string
		mod  func(*Application)
	}{
		{"empty", func(a *Application) {}},
		{"hard without deadline", func(a *Application) {
			a.AddProcess(Process{Name: "A", Kind: Hard, BCET: 1, AET: 1, WCET: 1})
		}},
		{"soft without utility", func(a *Application) {
			a.AddProcess(Process{Name: "A", Kind: Soft, BCET: 1, AET: 1, WCET: 1})
		}},
		{"zero wcet", func(a *Application) {
			a.AddProcess(Process{Name: "A", Kind: Hard, Deadline: 10})
		}},
		{"bcet > aet", func(a *Application) {
			a.AddProcess(Process{Name: "A", Kind: Hard, BCET: 5, AET: 2, WCET: 9, Deadline: 10})
		}},
		{"aet > wcet", func(a *Application) {
			a.AddProcess(Process{Name: "A", Kind: Hard, BCET: 1, AET: 12, WCET: 9, Deadline: 10})
		}},
		{"duplicate names", func(a *Application) {
			a.AddProcess(Process{Name: "A", Kind: Hard, BCET: 1, AET: 1, WCET: 1, Deadline: 10})
			a.AddProcess(Process{Name: "A", Kind: Hard, BCET: 1, AET: 1, WCET: 1, Deadline: 10})
		}},
		{"empty name", func(a *Application) {
			a.AddProcess(Process{Kind: Hard, BCET: 1, AET: 1, WCET: 1, Deadline: 10})
		}},
		{"negative release", func(a *Application) {
			a.AddProcess(Process{Name: "A", Kind: Hard, BCET: 1, AET: 1, WCET: 1, Deadline: 10, Release: -1})
		}},
		{"negative per-process mu", func(a *Application) {
			a.AddProcess(Process{Name: "A", Kind: Hard, BCET: 1, AET: 1, WCET: 1, Deadline: 10, Mu: -2})
		}},
		{"unknown kind", func(a *Application) {
			a.AddProcess(Process{Name: "A", Kind: Kind(9), BCET: 1, AET: 1, WCET: 1})
		}},
		{"cycle", func(a *Application) {
			x := a.AddProcess(Process{Name: "A", Kind: Hard, BCET: 1, AET: 1, WCET: 1, Deadline: 10})
			y := a.AddProcess(Process{Name: "B", Kind: Hard, BCET: 1, AET: 1, WCET: 1, Deadline: 10})
			a.MustAddEdge(x, y)
			a.MustAddEdge(y, x)
		}},
	}
	for _, c := range cases {
		if err := mk(c.mod); err == nil {
			t.Errorf("%s: Validate should fail", c.name)
		}
	}
	if err := mk(func(a *Application) {
		a.AddProcess(Process{Name: "A", Kind: Hard, BCET: 1, AET: 1, WCET: 1, Deadline: 10})
	}); err != nil {
		t.Errorf("minimal valid app rejected: %v", err)
	}

	bad := NewApplication("neg", -5, 1, 5)
	bad.AddProcess(Process{Name: "A", Kind: Hard, BCET: 1, AET: 1, WCET: 1, Deadline: 10})
	if err := bad.Validate(); err == nil {
		t.Error("negative period should fail")
	}
	bad2 := NewApplication("negk", 5, -1, 5)
	bad2.AddProcess(Process{Name: "A", Kind: Hard, BCET: 1, AET: 1, WCET: 1, Deadline: 10})
	if err := bad2.Validate(); err == nil {
		t.Error("negative k should fail")
	}
	bad3 := NewApplication("negmu", 5, 1, -5)
	bad3.AddProcess(Process{Name: "A", Kind: Hard, BCET: 1, AET: 1, WCET: 1, Deadline: 10})
	if err := bad3.Validate(); err == nil {
		t.Error("negative µ should fail")
	}
}

func TestEdgeErrors(t *testing.T) {
	a := NewApplication("e", 100, 0, 1)
	x := a.AddProcess(Process{Name: "A", Kind: Hard, BCET: 1, AET: 1, WCET: 1, Deadline: 10})
	y := a.AddProcess(Process{Name: "B", Kind: Hard, BCET: 1, AET: 1, WCET: 1, Deadline: 10})
	if err := a.AddEdge(x, x); err == nil {
		t.Error("self-loop should fail")
	}
	if err := a.AddEdge(x, ProcessID(99)); err == nil {
		t.Error("out-of-range target should fail")
	}
	if err := a.AddEdge(ProcessID(-1), y); err == nil {
		t.Error("out-of-range source should fail")
	}
	if err := a.AddEdge(x, y); err != nil {
		t.Fatal(err)
	}
	if err := a.AddEdge(x, y); err == nil {
		t.Error("duplicate edge should fail")
	}
}

func TestMutationAfterValidatePanics(t *testing.T) {
	a := NewApplication("m", 100, 0, 1)
	a.AddProcess(Process{Name: "A", Kind: Hard, BCET: 1, AET: 1, WCET: 1, Deadline: 10})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("AddProcess after Validate should panic")
		}
	}()
	a.AddProcess(Process{Name: "B", Kind: Hard, BCET: 1, AET: 1, WCET: 1, Deadline: 10})
}

func TestUseBeforeValidatePanics(t *testing.T) {
	a := NewApplication("m", 100, 0, 1)
	a.AddProcess(Process{Name: "A", Kind: Hard, BCET: 1, AET: 1, WCET: 1, Deadline: 10})
	defer func() {
		if recover() == nil {
			t.Error("Topo before Validate should panic")
		}
	}()
	_ = a.Topo()
}

func TestStaleCoefficientsViaApplication(t *testing.T) {
	// Diamond: A -> {B, C} -> D; drop B.
	a := NewApplication("d", 1000, 0, 1)
	pa := a.AddProcess(Process{Name: "A", Kind: Soft, BCET: 1, AET: 1, WCET: 1, Utility: u(1, 10)})
	pb := a.AddProcess(Process{Name: "B", Kind: Soft, BCET: 1, AET: 1, WCET: 1, Utility: u(1, 10)})
	pc := a.AddProcess(Process{Name: "C", Kind: Soft, BCET: 1, AET: 1, WCET: 1, Utility: u(1, 10)})
	pd := a.AddProcess(Process{Name: "D", Kind: Soft, BCET: 1, AET: 1, WCET: 1, Utility: u(1, 10)})
	a.MustAddEdge(pa, pb)
	a.MustAddEdge(pa, pc)
	a.MustAddEdge(pb, pd)
	a.MustAddEdge(pc, pd)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	status := []utility.StaleStatus{utility.Executed, utility.Dropped, utility.Executed, utility.Executed}
	alpha := a.StaleCoefficients(nil, status)
	// αA = 1, αB = 0, αC = (1+1)/2 = 1, αD = (1+0+1)/3 = 2/3.
	want := []float64{1, 0, 1, 2.0 / 3.0}
	for i := range want {
		if math.Abs(alpha[i]-want[i]) > 1e-12 {
			t.Errorf("alpha[%d] = %g, want %g", i, alpha[i], want[i])
		}
	}
}

// TestStaleCoefficientsReusesScratch: with sized scratch the recurrence
// writes in place and allocates nothing — the runtime accounts every
// dispatched cycle through it.
func TestStaleCoefficientsReusesScratch(t *testing.T) {
	a := NewApplication("chain", 1000, 0, 1)
	prev := NoProcess
	for i := 0; i < 8; i++ {
		id := a.AddProcess(Process{Name: "P" + string(rune('0'+i)), Kind: Soft, BCET: 1, AET: 1, WCET: 1, Utility: u(1, 10)})
		if prev != NoProcess {
			a.MustAddEdge(prev, id)
		}
		prev = id
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	status := make([]utility.StaleStatus, a.N())
	status[3] = utility.Dropped
	want := a.StaleCoefficients(nil, status)
	scratch := make([]float64, a.N())
	got := a.StaleCoefficients(scratch, status)
	if &got[0] != &scratch[0] {
		t.Error("sized scratch was not reused")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("alpha[%d] = %g with scratch, %g without", i, got[i], want[i])
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { a.StaleCoefficients(scratch, status) }); allocs != 0 {
		t.Errorf("StaleCoefficients with sized scratch: %v allocs, want 0", allocs)
	}
}

// TestStaleCoefficientsMatchesDefinition: on random DAGs whose process
// IDs are shuffled against their precedence order, so the validated
// topological order is not the identity, StaleCoefficients equals the
// §2.1 definition evaluated by memoised recursion over the predecessors:
// α = 0 for a dropped process, (1 + Σ α_pred)/(1 + |DP|) otherwise.
func TestStaleCoefficientsMatchesDefinition(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		rank := rng.Perm(n) // precedence runs from lower to higher rank
		a := NewApplication("r", 1000, 0, 1)
		for i := 0; i < n; i++ {
			a.AddProcess(Process{Name: "P" + string(rune('A'+i)), Kind: Soft, BCET: 1, AET: 1, WCET: 1, Utility: u(1, 10)})
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rank[i] < rank[j] && rng.Float64() < 0.3 {
					a.MustAddEdge(ProcessID(i), ProcessID(j))
				}
			}
		}
		if err := a.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		status := make([]utility.StaleStatus, n)
		for i := range status {
			if rng.Float64() < 0.3 {
				status[i] = utility.Dropped
			}
		}
		memo := make(map[ProcessID]float64, n)
		var def func(id ProcessID) float64
		def = func(id ProcessID) float64 {
			if v, ok := memo[id]; ok {
				return v
			}
			v := 0.0
			if status[id] != utility.Dropped {
				sum := 1.0
				for _, p := range a.Preds(id) {
					sum += def(p)
				}
				v = sum / float64(1+len(a.Preds(id)))
			}
			memo[id] = v
			return v
		}
		alpha := a.StaleCoefficients(nil, status)
		for i := 0; i < n; i++ {
			if want := def(ProcessID(i)); math.Abs(alpha[i]-want) > 1e-12 {
				t.Logf("seed %d: alpha[%d] = %g, want %g", seed, i, alpha[i], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMergeHyperPeriod(t *testing.T) {
	g1 := NewApplication("g1", 100, 1, 5)
	a1 := g1.AddProcess(Process{Name: "A", Kind: Hard, BCET: 1, AET: 2, WCET: 3, Deadline: 50})
	b1 := g1.AddProcess(Process{Name: "B", Kind: Soft, BCET: 1, AET: 2, WCET: 3, Utility: u(10, 60)})
	g1.MustAddEdge(a1, b1)
	if err := g1.Validate(); err != nil {
		t.Fatal(err)
	}

	g2 := NewApplication("g2", 150, 1, 5)
	g2.AddProcess(Process{Name: "C", Kind: Soft, BCET: 2, AET: 4, WCET: 6, Utility: u(20, 80)})
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}

	m, err := Merge("merged", 2, 5, g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Period() != 300 {
		t.Fatalf("hyper-period = %d, want lcm(100,150)=300", m.Period())
	}
	// g1 replicated 3x (6 processes), g2 replicated 2x (2 processes).
	if m.N() != 8 {
		t.Fatalf("N = %d, want 8", m.N())
	}
	// Check the second activation of A: release 100, deadline 150.
	a2 := m.IDByName("g1/A#1")
	if a2 == NoProcess {
		t.Fatal("g1/A#1 not found")
	}
	p := m.Proc(a2)
	if p.Release != 100 || p.Deadline != 150 {
		t.Errorf("A#1 release/deadline = %d/%d, want 100/150", p.Release, p.Deadline)
	}
	// Check the shifted utility of B#2 (third activation, offset 200):
	// worth 10 up to absolute time 260.
	b3 := m.IDByName("g1/B#2")
	if b3 == NoProcess {
		t.Fatal("g1/B#2 not found")
	}
	ub := m.Proc(b3).Utility
	if got := ub.Value(260); got != 10 {
		t.Errorf("U_B#2(260) = %g, want 10", got)
	}
	if got := ub.Value(261); got != 0 {
		t.Errorf("U_B#2(261) = %g, want 0", got)
	}
	// Edges replicated inside each activation.
	if got := len(m.Succs(a2)); got != 1 {
		t.Errorf("A#1 successors = %d, want 1", got)
	}
	if m.K() != 2 {
		t.Errorf("merged k = %d, want 2", m.K())
	}
}

func TestMergeErrors(t *testing.T) {
	if _, err := Merge("m", 1, 1); err == nil {
		t.Error("Merge with no applications should fail")
	}
	g := NewApplication("g", 100, 1, 5)
	g.AddProcess(Process{Name: "A", Kind: Hard, BCET: 1, AET: 1, WCET: 1, Deadline: 10})
	if _, err := Merge("m", 1, 1, g); err == nil {
		t.Error("Merge with unvalidated application should fail")
	}
}

func TestMergeSingleGraphKeepsNames(t *testing.T) {
	g := NewApplication("g", 100, 1, 5)
	g.AddProcess(Process{Name: "A", Kind: Hard, BCET: 1, AET: 1, WCET: 1, Deadline: 10})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := Merge("m", 1, 5, g)
	if err != nil {
		t.Fatal(err)
	}
	if m.IDByName("g/A") == NoProcess {
		t.Errorf("single-activation process should keep plain name, have %q", m.Proc(0).Name)
	}
}

func TestKindString(t *testing.T) {
	if Hard.String() != "hard" || Soft.String() != "soft" {
		t.Error("Kind.String mismatch")
	}
	if got := Kind(7).String(); got != "Kind(7)" {
		t.Errorf("Kind(7).String() = %q", got)
	}
	for k, want := range map[RecoveryKind]string{
		RecoverReExecution: "re-execution",
		RecoverRestart:     "restart",
		RecoverCheckpoint:  "checkpoint",
	} {
		if got := k.String(); got != want {
			t.Errorf("RecoveryKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

// TestSingleCorePlatform: the platform every application without an
// explicit one is bound to is the paper's single computation node.
func TestSingleCorePlatform(t *testing.T) {
	p := SingleCore()
	if p.NCores() != 1 || !p.IsCanonical() {
		t.Fatalf("SingleCore() = %v: %d cores, canonical %v", p, p.NCores(), p.IsCanonical())
	}
	if !NewApplication("a", 10, 0, 1).Platform().Equal(p) {
		t.Error("a new application is not bound to the canonical platform")
	}
}

// TestTopoOrderProperty: for random DAGs, Topo returns each process exactly
// once and never places a successor before its predecessor.
func TestTopoOrderProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(25)
		a := NewApplication("r", 10000, 1, 1)
		perm := rng.Perm(n) // hide the natural order
		ids := make([]ProcessID, n)
		for i := 0; i < n; i++ {
			ids[i] = a.AddProcess(Process{
				Name: "P" + string(rune('A'+perm[i]%26)) + string(rune('0'+i%10)) + string(rune('a'+i/10)),
				Kind: Hard, BCET: 1, AET: 1, WCET: 1, Deadline: 9000,
			})
		}
		// Random edges respecting the hidden order perm.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.25 {
					lo, hi := i, j
					if perm[lo] > perm[hi] {
						lo, hi = hi, lo
					}
					_ = a.AddEdge(ids[lo], ids[hi])
				}
			}
		}
		if err := a.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		topo := a.Topo()
		if len(topo) != n {
			return false
		}
		pos := make(map[ProcessID]int, n)
		for i, id := range topo {
			if _, dup := pos[id]; dup {
				return false
			}
			pos[id] = i
		}
		for id := 0; id < n; id++ {
			for _, s := range a.Succs(ProcessID(id)) {
				if pos[ProcessID(id)] >= pos[s] {
					return false
				}
			}
			if a.Rank(ProcessID(id)) != pos[ProcessID(id)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
