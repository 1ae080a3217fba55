package schedule

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ftsched/internal/model"
)

// bruteWorstCase is the exact worst case of a schedule started at start:
// it enumerates every allocation of at most k faults to the entries'
// recovery budgets under the canonical re-execution model (each
// re-execution of P_i costs WCET_i + µ_i) and returns, per entry, the
// latest completion time over all allocations, propagating starts through
// process releases exactly.
func bruteWorstCase(app *model.Application, entries []Entry, start Time, k int) []Time {
	worst := make([]Time, len(entries))
	var rec func(i, left int, now Time)
	rec = func(i, left int, now Time) {
		if i == len(entries) {
			return
		}
		e := entries[i]
		p := app.Proc(e.Proc)
		for m := 0; m <= min(e.Recoveries, left); m++ {
			end := max(now, p.Release) + p.WCET + Time(m)*(p.WCET+app.MuOf(e.Proc))
			worst[i] = max(worst[i], end)
			rec(i+1, left-m, end)
		}
	}
	rec(0, k, start)
	return worst
}

// randomSchedule builds a soft application of up to maxN independent
// processes, each scheduled once with a random recovery budget of at most
// k. With maxRel > 0 every process gets a release in [0, maxRel); with
// bcetHalf its BCET and AET are half its WCET. ok reports whether the
// application validated.
func randomSchedule(rng *rand.Rand, maxN, k int, maxW, maxRel Time, bcetHalf bool) (*model.Application, []Entry, bool) {
	n := 1 + rng.Intn(maxN)
	app := model.NewApplication("r", 1_000_000, k, 1+Time(rng.Intn(20)))
	entries := make([]Entry, n)
	for i := 0; i < n; i++ {
		w := 1 + Time(rng.Intn(int(maxW)))
		bc := w
		if bcetHalf {
			bc = w / 2
		}
		var rel Time
		if maxRel > 0 {
			rel = Time(rng.Intn(int(maxRel)))
		}
		id := app.AddProcess(model.Process{
			Name: string(rune('A' + i)), Kind: model.Soft,
			BCET: bc, AET: bc, WCET: w,
			Utility: step(1, 10),
			Release: rel,
		})
		entries[i] = Entry{Proc: id, Recoveries: rng.Intn(k + 1)}
	}
	return app, entries, app.Validate() == nil
}

// TestExactMatchesGreedyWithoutReleases: for release-free schedules the
// greedy shared-slack bound equals the exact worst case, on random
// instances.
func TestExactMatchesGreedyWithoutReleases(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(4)
		app, entries, ok := randomSchedule(rng, 8, k, 100, 0, true)
		if !ok {
			return false
		}
		g := WorstCaseCompletions(app, entries, 0, k)
		for i, b := range bruteWorstCase(app, entries, 0, k) {
			if g.WorstCase[i] != b {
				t.Logf("seed %d entry %d: greedy %d != exact %d", seed, i, g.WorstCase[i], b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestExactTighterWithReleases: recoveries that fit into a release gap do
// not delay later entries in the exact worst case, while the greedy bound
// charges them fully.
func TestExactTighterWithReleases(t *testing.T) {
	a := model.NewApplication("rel", 1000, 1, 10)
	// A runs 0..50 worst case; one re-execution would end at 110.
	pa := a.AddProcess(model.Process{Name: "A", Kind: model.Hard, BCET: 10, AET: 30, WCET: 50, Deadline: 200})
	// B is released at 150: A's recovery (ending 110) hides entirely in
	// the gap.
	pb := a.AddProcess(model.Process{Name: "B", Kind: model.Hard, BCET: 10, AET: 15, WCET: 20, Deadline: 300, Release: 150})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	entries := []Entry{{pa, 1}, {pb, 1}}
	g := WorstCaseCompletions(a, entries, 0, 1)
	e := bruteWorstCase(a, entries, 0, 1)
	// Greedy: finish(B) = 170 no-fault, + max recovery (60) = 230.
	if g.WorstCase[1] != 230 {
		t.Errorf("greedy WCC(B) = %d, want 230", g.WorstCase[1])
	}
	// Exact: worst is the fault on B itself: start 150, 20 + 30 = 200;
	// a fault on A ends at 110 < release and costs B nothing.
	if e[1] != 200 {
		t.Errorf("exact WCC(B) = %d, want 200", e[1])
	}
	// A's own worst case is identical in both.
	if g.WorstCase[0] != 110 || e[0] != 110 {
		t.Errorf("WCC(A) = %d/%d, want 110/110", g.WorstCase[0], e[0])
	}
}

// TestExactNeverExceedsGreedy: the exact worst case is never above the
// safe greedy bound on release-bearing schedules — part of a recovery may
// hide in a release gap, so the bound may be pessimistic there — and never
// below the no-fault finish.
func TestExactNeverExceedsGreedy(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(4)
		app, entries, ok := randomSchedule(rng, 8, k, 100, 400, true)
		if !ok {
			return false
		}
		g := WorstCaseCompletions(app, entries, 0, k)
		for i, b := range bruteWorstCase(app, entries, 0, k) {
			if b > g.WorstCase[i] {
				t.Logf("seed %d: exact %d exceeds greedy %d at %d", seed, b, g.WorstCase[i], i)
				return false
			}
			if b < g.Finish[i] {
				t.Logf("seed %d: exact below no-fault finish at %d", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestExactBruteForceWithReleases: on small release-bearing schedules that
// start late in the cycle (start may fall before or after the releases),
// the greedy bound stays at or above the exhaustive enumeration.
func TestExactBruteForceWithReleases(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(3)
		app, entries, ok := randomSchedule(rng, 5, k, 60, 200, false)
		if !ok {
			return false
		}
		start := Time(rng.Intn(150))
		g := WorstCaseCompletions(app, entries, start, k)
		for i, b := range bruteWorstCase(app, entries, start, k) {
			if g.WorstCase[i] < b {
				t.Logf("seed %d entry %d: greedy %d below brute force %d (start %d)", seed, i, g.WorstCase[i], b, start)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCheckSchedulableReleases(t *testing.T) {
	a := model.NewApplication("rel", 220, 1, 10)
	// A runs 0..50 worst case; one re-execution would end at 110.
	pa := a.AddProcess(model.Process{Name: "A", Kind: model.Hard, BCET: 10, AET: 30, WCET: 50, Deadline: 110})
	// B is released at 150, so A's recovery would hide in the gap, but
	// the greedy bound charges it in full: WCC(B) = 230 > 220
	// (TestExactTighterWithReleases).
	pb := a.AddProcess(model.Process{Name: "B", Kind: model.Hard, BCET: 10, AET: 15, WCET: 20, Deadline: 220, Release: 150})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	entries := []Entry{{pa, 1}, {pb, 1}}
	if err := CheckSchedulable(a, entries, 0, 1); err == nil {
		t.Error("the greedy bound should reject this schedule")
	}
	// A genuine violation.
	tight := model.NewApplication("t", 100, 1, 10)
	h := tight.AddProcess(model.Process{Name: "H", Kind: model.Hard, BCET: 10, AET: 30, WCET: 50, Deadline: 100})
	if err := tight.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := CheckSchedulable(tight, []Entry{{h, 1}}, 0, 1); err == nil {
		t.Error("must reject a genuine violation")
	}
	// A period violation.
	tight2 := model.NewApplication("t2", 100, 0, 10)
	h2 := tight2.AddProcess(model.Process{Name: "H", Kind: model.Hard, BCET: 10, AET: 30, WCET: 50, Deadline: 300, Release: 80})
	_ = tight2.Validate()
	if err := CheckSchedulable(tight2, []Entry{{h2, 0}}, 0, 0); err == nil {
		t.Error("must reject a period violation")
	}
}
