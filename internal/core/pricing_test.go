package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/gen"
	"ftsched/internal/model"
	"ftsched/internal/utility"
)

// refSoftProjection freezes softProjection as it was before the compact
// list and the α cone, as an independent oracle for it: every greedy
// round scans all n processes, and the stale coefficients come from the
// full α recurrence over the dropped set plus excluded.
func refSoftProjection(st *ftssState, excluded model.ProcessID) float64 {
	app := st.app
	n := app.N()
	status := make([]utility.StaleStatus, n)
	for id := range status {
		if st.dropped[id] || model.ProcessID(id) == excluded {
			status[id] = utility.Dropped
		}
	}
	alpha := app.StaleCoefficients(nil, status)
	remaining := make([]bool, n)
	blockers := make([]int, n)
	left := 0
	for id := range remaining {
		remaining[id] = !st.scheduled[id] && !st.dropped[id] &&
			model.ProcessID(id) != excluded && st.kind[id] == model.Soft
		if remaining[id] {
			left++
		}
	}
	for id, in := range remaining {
		if !in {
			continue
		}
		for _, q := range app.Preds(model.ProcessID(id)) {
			if remaining[q] {
				blockers[id]++
			}
		}
	}
	now := st.nowE
	var total float64
	for ; left > 0; left-- {
		best := model.NoProcess
		bestDensity := 0.0
		var bestDone Time
		for id, in := range remaining {
			if !in || blockers[id] > 0 {
				continue
			}
			pid := model.ProcessID(id)
			s := now
			if st.release[id] > s {
				s = st.release[id]
			}
			aet := st.aet[id]
			done := s + aet
			density := alpha[id] * st.util[id].Value(done)
			if aet > 0 {
				density /= float64(aet)
			}
			if best == model.NoProcess || density > bestDensity ||
				(density == bestDensity && pid < best) {
				best, bestDensity, bestDone = pid, density, done
			}
		}
		if best == model.NoProcess {
			break
		}
		remaining[best] = false
		for _, sc := range app.Succs(best) {
			blockers[sc]--
		}
		now = bestDone
		total += alpha[best] * st.util[best].Value(bestDone)
	}
	return total
}

// TestSoftProjectionMatchesReference: at every step of the root and suffix
// FTSS runs of the tail fixtures (every recovery model, canonical and
// mapped platforms), the projection with nothing excluded, with each ready
// soft process excluded, and each ready soft process's rollout equal the
// frozen full-scan projection bit for bit. The exclusions exercise the α
// cone, the rollouts the compact list with a process marked scheduled.
func TestSoftProjectionMatchesReference(t *testing.T) {
	checked := 0
	for _, app := range tailFixtures(t) {
		for ri, r := range suffixRuns(app) {
			st := ftssStateAt(app, r.executed, r.dropped, r.start, r.kRem)
			check := func(step int, when string) {
				label := func(what string) string {
					return fmt.Sprintf("%s (%s, mapped=%v) run %d step %d %s, %s",
						app.Name(), app.Recovery(), app.Platform().NCores() > 1, ri, step, when, what)
				}
				same := func(what string, got, want float64) {
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: %g, the full scan gives %g", label(what), got, want)
					}
					checked++
				}
				same("nothing excluded", st.softProjection(model.NoProcess), refSoftProjection(st, model.NoProcess))
				for _, p := range st.ready {
					if st.kind[p] != model.Soft {
						continue
					}
					name := app.Proc(p).Name
					same(name+" excluded", st.softProjection(p), refSoftProjection(st, p))
					done := st.nowE + st.aet[p]
					got := st.rolloutProjection(done, p)
					now := st.nowE
					st.nowE, st.scheduled[p] = done, true
					want := refSoftProjection(st, model.NoProcess)
					st.nowE, st.scheduled[p] = now, false
					same(name+" rollout", got, want)
				}
			}
			for step := 0; len(st.ready) > 0; step++ {
				check(step, "before dropping")
				st.determineDropping()
				if len(st.ready) == 0 {
					continue
				}
				check(step, "after dropping")
				if st.placeNext() != nil {
					break
				}
			}
		}
	}
	if checked < 10000 {
		t.Errorf("only %d projections checked", checked)
	}
	t.Logf("%d projections checked", checked)
}

// pricingApps are the applications of the pricing tests: the cruise
// controller and the 20-process application of BenchmarkFTQS/Gen20.
func pricingApps(t *testing.T) []*model.Application {
	t.Helper()
	gen20, err := gen.Generate(rand.New(rand.NewSource(1008)), gen.Default(20))
	if err != nil {
		t.Fatal(err)
	}
	return []*model.Application{apps.CruiseController(), gen20}
}

// rootExpansion returns a one-worker synthesizer for app and its root
// node's expansion.
func rootExpansion(t *testing.T, app *model.Application) (*synthesizer, *expansion) {
	t.Helper()
	root, err := FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	s := newSynthesizer(app, FTQSOptions{Workers: 1}.withDefaults())
	n := &bNode{Node: Node{
		Schedule: root, KRem: app.K(),
		DroppedOnFault: model.NoProcess, Parent: NoNode,
	}}
	return s, s.expand(n)
}

// TestSharedParentEvalMatchesFresh: at every position of the root
// expansion, the parent evaluator every candidate shares returns at each
// integer completion time of the position's window what a fresh evaluator
// returns there, bit for bit: probed in sweep order, then again in a
// shuffled order, and rebuilt and probed in the shuffled order first. Both
// dropped-set assumptions are covered.
func TestSharedParentEvalMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	checked := 0
	for _, app := range pricingApps(t) {
		s, x := rootExpansion(t, app)
		pr := s.pricer(0)
		entries := x.n.Schedule.Entries
		for pos := x.n.SwitchPos; pos < len(entries)-1; pos++ {
			lo, hi := x.best.Finish[pos], x.worst[pos]
			sweep := make([]Time, 0, hi-lo+1)
			for tt := lo; tt <= hi; tt++ {
				sweep = append(sweep, tt)
			}
			shuffled := append([]Time(nil), sweep...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for _, droppedOF := range []model.ProcessID{model.NoProcess, entries[pos].Proc} {
				d := make([]bool, app.N())
				droppedAssumption(d, x.n, droppedOF)
				want := make(map[Time]uint64, len(sweep))
				for _, tt := range sweep {
					want[tt] = math.Float64bits(newSuffixEval(app, entries[pos+1:], d, s.opts.EvalScenarios).from(tt))
				}
				probe := func(order string, e *suffixEval, ts []Time) {
					for _, tt := range ts {
						if got := math.Float64bits(e.from(tt)); got != want[tt] {
							t.Fatalf("%s pos %d dropped %d %s: from(%d) = %g, a fresh evaluator gives %g",
								app.Name(), pos, droppedOF, order, tt,
								math.Float64frombits(got), math.Float64frombits(want[tt]))
						}
						checked++
					}
				}
				e := s.parentEval(pr, x.n, pos, droppedOF)
				probe("sweep", e, sweep)
				probe("shuffled after sweep", s.parentEval(pr, x.n, pos, droppedOF), shuffled)
				pr.parentAt = [2]parentKey{}
				probe("shuffled", s.parentEval(pr, x.n, pos, droppedOF), shuffled)
			}
		}
	}
	t.Logf("%d probes checked", checked)
}

// TestCandidatePricingAllocs: once a worker's scratch and the suffix memo
// are warm, generating and pricing the candidates of a position allocates
// only what the candidates keep: the returned slice and each candidate's
// intervals (the suffixes are the memo's). The parent evaluators are
// rebuilt on every run, so the measured path prices from scratch.
func TestCandidatePricingAllocs(t *testing.T) {
	kept := 0
	for _, app := range pricingApps(t) {
		s, x := rootExpansion(t, app)
		pr := s.pricer(0)
		for pos := x.n.SwitchPos; pos < len(x.n.Schedule.Entries)-1; pos++ {
			cands := s.candidatesAt(pr, x, pos)
			want := float64(len(cands))
			if len(cands) > 0 {
				want++
			}
			allocs := testing.AllocsPerRun(5, func() {
				pr.parentAt = [2]parentKey{}
				s.candidatesAt(pr, x, pos)
			})
			if allocs != want {
				t.Errorf("%s pos %d: %.1f allocations for %d candidates, want %.0f",
					app.Name(), pos, allocs, len(cands), want)
			}
			kept += len(cands)
		}
	}
	if kept == 0 {
		t.Error("no position kept a candidate")
	}
}
