package schedule

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ftsched/internal/model"
	"ftsched/internal/utility"
)

func step(v float64, until Time) utility.Function {
	return utility.MustStep([]Time{until}, []float64{v})
}

// fig1 builds the paper's Fig. 1 application with Fig. 4a-style utilities:
// U2 = 40 up to 90 ms then 20 up to 200 ms then 10 up to 250 ms;
// U3 = 40 up to 110 ms then 30 up to 150 ms then 10 up to 220 ms.
// These staircases reproduce every utility value quoted in the Fig. 4
// discussion (see the tests below).
func fig1(t *testing.T) (*model.Application, [3]model.ProcessID) {
	t.Helper()
	a := model.NewApplication("fig1", 300, 1, 10)
	p1 := a.AddProcess(model.Process{Name: "P1", Kind: model.Hard, BCET: 30, AET: 50, WCET: 70, Deadline: 180})
	p2 := a.AddProcess(model.Process{Name: "P2", Kind: model.Soft, BCET: 30, AET: 50, WCET: 70,
		Utility: utility.MustStep([]model.Time{90, 200, 250}, []float64{40, 20, 10})})
	p3 := a.AddProcess(model.Process{Name: "P3", Kind: model.Soft, BCET: 40, AET: 60, WCET: 80,
		Utility: utility.MustStep([]model.Time{110, 150, 220}, []float64{40, 30, 10})})
	a.MustAddEdge(p1, p2)
	a.MustAddEdge(p1, p3)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a, [3]model.ProcessID{p1, p2, p3}
}

func TestFig3ReExecutionTiming(t *testing.T) {
	// Paper Fig. 3: P1 with WCET 30 ms, k = 2, µ = 5 ms. Worst case:
	// 30 + (5+30) + (5+30) = 100 ms.
	a := model.NewApplication("fig3", 1000, 2, 5)
	p1 := a.AddProcess(model.Process{Name: "P1", Kind: model.Hard, BCET: 30, AET: 30, WCET: 30, Deadline: 100})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	entries := []Entry{{Proc: p1, Recoveries: 2}}
	c := WorstCaseCompletions(a, entries, 0, 2)
	if c.WorstCase[0] != 100 {
		t.Errorf("worst-case completion = %d, want 100", c.WorstCase[0])
	}
	if c.Finish[0] != 30 {
		t.Errorf("no-fault finish = %d, want 30", c.Finish[0])
	}
	if err := CheckSchedulable(a, entries, 0, 2); err != nil {
		t.Errorf("should be schedulable exactly at the deadline: %v", err)
	}
	// One more millisecond of µ and it misses.
	b := model.NewApplication("fig3b", 1000, 2, 6)
	q1 := b.AddProcess(model.Process{Name: "P1", Kind: model.Hard, BCET: 30, AET: 30, WCET: 30, Deadline: 100})
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	err := CheckSchedulable(b, []Entry{{Proc: q1, Recoveries: 2}}, 0, 2)
	var ue *UnschedulableError
	if !errors.As(err, &ue) {
		t.Fatalf("expected UnschedulableError, got %v", err)
	}
	if ue.Proc != q1 || ue.Completion != 102 {
		t.Errorf("violation = %+v, want P1 at 102", ue)
	}
}

func TestSharedSlackFig4(t *testing.T) {
	// Fig. 4b4/c: schedule P1 P3 P2, k = 1, µ = 10. With recoveries on
	// all three processes the worst-case makespan would be
	// 220 + (80+10) = 310 > T = 300, so P3 (or P2) must give up its
	// recovery: with f(P3) = 0 the makespan is 220 + 90 = 310 still via
	// P3? No: recovery candidates are then P1 (70+10) and P2 (70+10), so
	// 220 + 80 = 300 <= 300.
	a, ids := fig1(t)
	all := []Entry{{ids[0], 1}, {ids[2], 1}, {ids[1], 1}}
	c := WorstCaseCompletions(a, all, 0, 1)
	if got := c.WorstCase[2]; got != 310 {
		t.Errorf("makespan with all recoveries = %d, want 310", got)
	}
	if Schedulable(a, all, 0, 1) {
		t.Error("all-recoveries schedule must exceed the period")
	}
	noP3 := []Entry{{ids[0], 1}, {ids[2], 0}, {ids[1], 1}}
	c = WorstCaseCompletions(a, noP3, 0, 1)
	if got := c.WorstCase[2]; got != 300 {
		t.Errorf("makespan without P3 recovery = %d, want 300", got)
	}
	if !Schedulable(a, noP3, 0, 1) {
		t.Error("schedule without P3 recovery must fit the period")
	}
	// P1's worst-case completion: 70 + 80 = 150 <= 180.
	if got := c.WorstCase[0]; got != 150 {
		t.Errorf("WCC(P1) = %d, want 150", got)
	}
}

func TestExpectedUtilityFig4(t *testing.T) {
	// Fig. 4b1: S1 = P1,P2,P3 in the average case completes P2 at 100 and
	// P3 at 160: U = U2(100) + U3(160) = 20 + 10 = 30.
	// Fig. 4b2: S2 = P1,P3,P2 completes P3 at 110, P2 at 160:
	// U = U3(110) + U2(160) = 40 + 20 = 60.
	a, ids := fig1(t)
	s1 := &FSchedule{Entries: []Entry{{ids[0], 1}, {ids[1], 0}, {ids[2], 0}}}
	s2 := &FSchedule{Entries: []Entry{{ids[0], 1}, {ids[2], 0}, {ids[1], 0}}}
	if got := ExpectedUtility(a, s1); got != 30 {
		t.Errorf("U(S1) = %g, want 30", got)
	}
	if got := ExpectedUtility(a, s2); got != 60 {
		t.Errorf("U(S2) = %g, want 60", got)
	}
	// Fig. 4c3/c4: dropping P2 (S3 = P1,P3) gives U3(100)·α... P3 executed
	// with P1 its only predecessor: α3 = 1, completes at 50+60 = 110 in
	// the average case -> 40. The paper evaluates the worst case
	// completion 100 for U3 after the fault; here we check the dropped
	// counterpart produces the stale-degraded utilities.
	s3 := &FSchedule{Entries: []Entry{{ids[0], 1}, {ids[2], 0}}}
	if got := ExpectedUtility(a, s3); got != 40 {
		t.Errorf("U(S3) = %g, want 40", got)
	}
	s4 := &FSchedule{Entries: []Entry{{ids[0], 1}, {ids[1], 0}}}
	// P2 completes at 100 on average: U2(100) = 20.
	if got := ExpectedUtility(a, s4); got != 20 {
		t.Errorf("U(S4) = %g, want 20", got)
	}
}

func TestStaleDegradationInUtility(t *testing.T) {
	// Chain A(soft) -> B(soft). Drop A; B executes with a stale input:
	// αB = (1+0)/2 = 1/2, so B is worth half.
	a := model.NewApplication("stale", 1000, 0, 1)
	pa := a.AddProcess(model.Process{Name: "A", Kind: model.Soft, BCET: 10, AET: 10, WCET: 10, Utility: step(100, 500)})
	pb := a.AddProcess(model.Process{Name: "B", Kind: model.Soft, BCET: 10, AET: 10, WCET: 10, Utility: step(60, 500)})
	a.MustAddEdge(pa, pb)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	s := &FSchedule{Entries: []Entry{{pb, 0}}}
	if got := ExpectedUtility(a, s); math.Abs(got-30) > 1e-12 {
		t.Errorf("U = %g, want 30 (stale-halved)", got)
	}
}

func TestReleaseHonoured(t *testing.T) {
	a := model.NewApplication("rel", 1000, 0, 1)
	pa := a.AddProcess(model.Process{Name: "A", Kind: model.Hard, BCET: 5, AET: 5, WCET: 5, Deadline: 100})
	pb := a.AddProcess(model.Process{Name: "B", Kind: model.Hard, BCET: 5, AET: 7, WCET: 10, Deadline: 300, Release: 200})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	entries := []Entry{{pa, 0}, {pb, 0}}
	c := ExpectedCompletions(a, entries, 0)
	if c.Start[1] != 200 || c.Finish[1] != 207 {
		t.Errorf("B start/finish = %d/%d, want 200/207", c.Start[1], c.Finish[1])
	}
	w := WorstCaseCompletions(a, entries, 0, 0)
	if w.Start[1] != 200 || w.WorstCase[1] != 210 {
		t.Errorf("B worst start/completion = %d/%d, want 200/210", w.Start[1], w.WorstCase[1])
	}
	b := BestCaseCompletions(a, entries, 0)
	if b.Finish[1] != 205 {
		t.Errorf("B best finish = %d, want 205", b.Finish[1])
	}
}

func TestValidateSchedule(t *testing.T) {
	a, ids := fig1(t)
	good := &FSchedule{Entries: []Entry{{ids[0], 1}, {ids[1], 0}, {ids[2], 1}}}
	if err := Validate(a, good); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	cases := []struct {
		name string
		s    *FSchedule
	}{
		{"duplicate", &FSchedule{Entries: []Entry{{ids[0], 1}, {ids[0], 1}}}},
		{"out of range", &FSchedule{Entries: []Entry{{model.ProcessID(9), 0}}}},
		{"hard dropped", &FSchedule{Entries: []Entry{{ids[1], 0}}}},
		{"hard without k recoveries", &FSchedule{Entries: []Entry{{ids[0], 0}}}},
		{"negative recoveries", &FSchedule{Entries: []Entry{{ids[0], 1}, {ids[1], -1}}}},
		{"too many recoveries", &FSchedule{Entries: []Entry{{ids[0], 1}, {ids[1], 5}}}},
		{"precedence violated", &FSchedule{Entries: []Entry{{ids[1], 0}, {ids[0], 1}}}},
	}
	for _, c := range cases {
		if err := Validate(a, c.s); err == nil {
			t.Errorf("%s: Validate should fail", c.name)
		}
	}
	// Dropping the soft predecessor of a scheduled process is fine.
	dropPred := &FSchedule{Entries: []Entry{{ids[0], 1}, {ids[2], 0}}}
	if err := Validate(a, dropPred); err != nil {
		t.Errorf("dropping a soft process should be allowed: %v", err)
	}
}

func TestAccessors(t *testing.T) {
	a, ids := fig1(t)
	s := &FSchedule{Entries: []Entry{{ids[0], 1}, {ids[2], 0}}}
	if s.IndexOf(ids[2]) != 1 || s.IndexOf(ids[1]) != -1 {
		t.Error("IndexOf mismatch")
	}
	if !s.Contains(ids[0]) || s.Contains(ids[1]) {
		t.Error("Contains mismatch")
	}
	d := s.Dropped(a)
	if len(d) != 1 || d[0] != ids[1] {
		t.Errorf("Dropped = %v, want [P2]", d)
	}
	if got := s.String(); got != "#0(f=1) #2" {
		t.Errorf("String = %q", got)
	}
	if got := s.Format(a); got != "P1(f=1) P3 | dropped: P2" {
		t.Errorf("Format = %q", got)
	}
}

func TestPeriodViolationError(t *testing.T) {
	a := model.NewApplication("p", 50, 0, 1)
	x := a.AddProcess(model.Process{Name: "A", Kind: model.Soft, BCET: 30, AET: 40, WCET: 60, Utility: step(5, 100)})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	err := CheckSchedulable(a, []Entry{{x, 0}}, 0, 0)
	var ue *UnschedulableError
	if !errors.As(err, &ue) {
		t.Fatalf("expected UnschedulableError, got %v", err)
	}
	if ue.Proc != model.NoProcess || ue.Bound != 50 {
		t.Errorf("violation = %+v, want period violation at bound 50", ue)
	}
	if ue.Error() == "" {
		t.Error("empty error text")
	}
}

// bruteRecovery computes the worst-case recovery cost by exhaustive
// enumeration, for cross-checking the greedy analysis.
func bruteRecovery(costs []Time, maxes []int, k int) Time {
	var rec func(i, left int) Time
	rec = func(i, left int) Time {
		if i == len(costs) || left == 0 {
			return 0
		}
		var best Time
		for n := 0; n <= maxes[i] && n <= left; n++ {
			v := Time(n)*costs[i] + rec(i+1, left-n)
			if v > best {
				best = v
			}
		}
		return best
	}
	return rec(0, k)
}

// TestWorstCaseGreedyMatchesBruteForce: the greedy shared-slack computation
// equals exhaustive enumeration on random small instances.
func TestWorstCaseGreedyMatchesBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		k := rng.Intn(4)
		app := model.NewApplication("r", 1_000_000, k, 1+Time(rng.Intn(20)))
		entries := make([]Entry, n)
		costs := make([]Time, n)
		maxes := make([]int, n)
		for i := 0; i < n; i++ {
			w := 1 + Time(rng.Intn(100))
			id := app.AddProcess(model.Process{
				Name: string(rune('A' + i)), Kind: model.Soft,
				BCET: w, AET: w, WCET: w, Utility: step(1, 10),
			})
			f := rng.Intn(k + 1)
			entries[i] = Entry{Proc: id, Recoveries: f}
			costs[i] = w + app.Mu()
			maxes[i] = f
		}
		if err := app.Validate(); err != nil {
			t.Log(err)
			return false
		}
		c := WorstCaseCompletions(app, entries, 0, k)
		// Check only the final entry (the full item set).
		var sumW Time
		for i := range entries {
			sumW += app.Proc(entries[i].Proc).WCET
		}
		want := sumW + bruteRecovery(costs, maxes, k)
		return c.WorstCase[n-1] == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestWorstCaseMonotoneProperty: worst-case completions never decrease when
// k grows, and always dominate the no-fault finish times.
func TestWorstCaseMonotoneProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		app := model.NewApplication("r", 1_000_000, 5, 10)
		entries := make([]Entry, n)
		for i := 0; i < n; i++ {
			w := 1 + Time(rng.Intn(100))
			id := app.AddProcess(model.Process{
				Name: string(rune('A' + i)), Kind: model.Soft,
				BCET: w / 2, AET: w / 2, WCET: w, Utility: step(1, 10),
			})
			entries[i] = Entry{Proc: id, Recoveries: rng.Intn(3)}
		}
		if err := app.Validate(); err != nil {
			return false
		}
		prev := WorstCaseCompletions(app, entries, 0, 0)
		for i := range entries {
			if prev.WorstCase[i] < prev.Finish[i] {
				return false
			}
		}
		for k := 1; k <= 5; k++ {
			cur := WorstCaseCompletions(app, entries, 0, k)
			for i := range entries {
				if cur.WorstCase[i] < prev.WorstCase[i] {
					t.Logf("WCC decreased with k=%d at entry %d", k, i)
					return false
				}
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
