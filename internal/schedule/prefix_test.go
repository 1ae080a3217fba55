package schedule

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ftsched/internal/gen"
	"ftsched/internal/model"
)

// withPeriod rebuilds a validated application with another period.
func withPeriod(t testing.TB, app *model.Application, period Time) *model.Application {
	t.Helper()
	cp := model.NewApplication(app.Name(), period, app.K(), app.Mu())
	for id := 0; id < app.N(); id++ {
		cp.AddProcess(app.Proc(model.ProcessID(id)))
	}
	for id := 0; id < app.N(); id++ {
		for _, s := range app.Succs(model.ProcessID(id)) {
			cp.MustAddEdge(model.ProcessID(id), s)
		}
	}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	return cp
}

// namedApp is one application of the analysis test matrix.
type namedApp struct {
	name string
	app  *model.Application
}

// analysisApps returns generated §6 applications plus a merged two-rate
// application whose second-period activations carry releases, each under
// every recovery model, on the canonical platform and on a two-core
// biased mapping.
func analysisApps(t testing.TB) []namedApp {
	t.Helper()
	var bases []*model.Application
	for seed, n := range []int{6, 12, 20} {
		app, err := gen.Generate(rand.New(rand.NewSource(int64(seed+1))), gen.Default(n))
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, app)
	}
	fast, err := gen.Generate(rand.New(rand.NewSource(11)), gen.Default(4))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := gen.Generate(rand.New(rand.NewSource(12)), gen.Default(5))
	if err != nil {
		t.Fatal(err)
	}
	period := max(fast.Period(), slow.Period())
	merged, err := model.Merge("merged", 2, 15, withPeriod(t, fast, period), withPeriod(t, slow, 2*period))
	if err != nil {
		t.Fatal(err)
	}
	bases = append(bases, merged)
	plat := model.MustNewPlatform(
		model.Core{Name: "lp", Speed: 1, PowerActive: 1, PowerIdle: 0.05},
		model.Core{Name: "hp", Speed: 2, PowerActive: 3, PowerIdle: 0.15},
	)
	var out []namedApp
	for _, base := range bases {
		for _, rec := range []model.RecoveryModel{
			model.ReExecutionModel(), model.RestartModel(15), model.CheckpointModel(40, 3, 7),
		} {
			app := base
			if !rec.IsCanonical() {
				if app, err = app.WithRecovery(rec); err != nil {
					t.Fatal(err)
				}
			}
			out = append(out, namedApp{fmt.Sprintf("%s/%s", base.Name(), rec), app})
			mapped, err := app.WithPlatform(plat, model.BiasedMapping(app, plat))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, namedApp{fmt.Sprintf("%s/%s/mapped", base.Name(), rec), mapped})
		}
	}
	return out
}

// randomEntries draws a random subset of the processes with random
// recovery budgets in [0, 4]. Most lists follow the topological order, as
// synthesis produces them; the rest are arbitrary orders, which the
// analysis must treat like the reference does (a predecessor placed later
// does not delay its successor).
func randomEntries(rng *rand.Rand, app *model.Application) []Entry {
	var out []Entry
	for _, id := range rng.Perm(app.N()) {
		if rng.Intn(4) > 0 {
			out = append(out, Entry{Proc: model.ProcessID(id), Recoveries: rng.Intn(5)})
		}
	}
	if rng.Intn(4) > 0 {
		rank := make([]int, app.N())
		for i, id := range app.Topo() {
			rank[id] = i
		}
		slices.SortFunc(out, func(a, b Entry) int { return rank[a.Proc] - rank[b.Proc] })
	}
	return out
}

// sameUnschedulable compares two CheckSchedulable results field by field.
func sameUnschedulable(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	var g, w *UnschedulableError
	if !errors.As(got, &g) || !errors.As(want, &w) {
		return false
	}
	return *g == *w
}

// TestPrefixMatchesReference: the incremental analysis reproduces the
// frozen sort-based one exactly — per-entry start, finish and worst-case
// completion, and the reported violation — over random entry lists on
// generated and merged multi-rate applications, every recovery model,
// both platforms, k from 0 to 3 and several start times. Each list is
// also split at a random point, the prefix copied, and both the copy and
// the original completed, so CopyInto must leave them independent. One
// Prefix value also alternates between neighbouring applications of the
// matrix, which share their processes but not their platform or recovery
// model, so analysis rows kept from an earlier Reset show.
func TestPrefixMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var orig, cp Prefix
	for _, na := range analysisApps(t) {
		name, app := na.name, na.app
		for k := 0; k <= 3; k++ {
			for _, start := range []Time{0, 37, app.Period() / 3, app.Period()} {
				for trial := 0; trial < 8; trial++ {
					entries := randomEntries(rng, app)
					label := fmt.Sprintf("%s k=%d start=%d trial=%d", name, k, start, trial)
					want := refWorstCaseCompletions(app, entries, start, k)
					got := WorstCaseCompletions(app, entries, start, k)
					if !slices.Equal(got.Start, want.Start) || !slices.Equal(got.Finish, want.Finish) ||
						!slices.Equal(got.WorstCase, want.WorstCase) {
						t.Fatalf("%s: completions differ\n got  %+v\n want %+v", label, got, want)
					}
					wantErr := refCheckSchedulable(app, entries, start, k)
					if err := CheckSchedulable(app, entries, start, k); !sameUnschedulable(err, wantErr) {
						t.Fatalf("%s: CheckSchedulable = %v, want %v", label, err, wantErr)
					}
					if Schedulable(app, entries, start, k) != (wantErr == nil) {
						t.Fatalf("%s: Schedulable disagrees with %v", label, wantErr)
					}

					cut := rng.Intn(len(entries) + 1)
					orig.Reset(app, start, k)
					for _, e := range entries[:cut] {
						orig.Extend(e)
					}
					orig.CopyInto(&cp)
					for _, p := range []*Prefix{&cp, &orig} {
						for i, e := range entries[cut:] {
							if _, _, wc := p.Extend(e); wc != want.WorstCase[cut+i] {
								t.Fatalf("%s: split at %d: entry %d worst case %d, want %d",
									label, cut, cut+i, wc, want.WorstCase[cut+i])
							}
						}
						if err := p.Err(); !sameUnschedulable(err, wantErr) {
							t.Fatalf("%s: split at %d: Err = %v, want %v", label, cut, err, wantErr)
						}
						if p.Violated() != (wantErr != nil) {
							t.Fatalf("%s: split at %d: Violated disagrees with %v", label, cut, wantErr)
						}
					}
				}
			}
		}
	}
	all := analysisApps(t)
	var alt Prefix
	rng = rand.New(rand.NewSource(2))
	for i := 0; i+1 < len(all); i++ {
		for _, na := range []namedApp{all[i], all[i+1], all[i], all[i+1]} {
			entries := randomEntries(rng, na.app)
			want := refWorstCaseCompletions(na.app, entries, 0, 2)
			alt.Reset(na.app, 0, 2)
			for j, e := range entries {
				if s, f, wc := alt.Extend(e); s != want.Start[j] || f != want.Finish[j] || wc != want.WorstCase[j] {
					t.Fatalf("%s after %s on one Prefix: entry %d = (%d, %d, %d), want (%d, %d, %d)",
						na.name, all[i].name, j, s, f, wc, want.Start[j], want.Finish[j], want.WorstCase[j])
				}
			}
			if err, wantErr := alt.Err(), refCheckSchedulable(na.app, entries, 0, 2); !sameUnschedulable(err, wantErr) {
				t.Fatalf("%s after %s on one Prefix: Err = %v, want %v", na.name, all[i].name, err, wantErr)
			}
		}
	}
}

// TestPrefixAllocs: once sized, extending and copying a prefix allocate
// nothing, under every recovery model on both platforms.
func TestPrefixAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, na := range analysisApps(t) {
		name, app := na.name, na.app
		if app.N() != 20 {
			continue
		}
		var base, dst Prefix
		base.Reset(app, 0, 3)
		for id := 0; id < app.N()/2; id++ {
			base.Extend(Entry{Proc: model.ProcessID(id), Recoveries: 2})
		}
		base.CopyInto(&dst)
		allocs := testing.AllocsPerRun(100, func() {
			base.CopyInto(&dst)
			for id := app.N() / 2; id < app.N(); id++ {
				dst.Extend(Entry{Proc: model.ProcessID(id), Recoveries: 3})
			}
		})
		if allocs != 0 {
			t.Errorf("%s: CopyInto+Extend allocate %.1f times per run", name, allocs)
		}
	}
}

// BenchmarkPrefixExtend measures the per-candidate cost FTSS pays: copy
// the analysed prefix of a 30-process schedule and extend it by the other
// half.
func BenchmarkPrefixExtend(b *testing.B) {
	app, err := gen.Generate(rand.New(rand.NewSource(1)), gen.Default(30))
	if err != nil {
		b.Fatal(err)
	}
	entries := make([]Entry, app.N())
	for i, id := range app.Topo() {
		entries[i] = Entry{Proc: id, Recoveries: app.K()}
	}
	var base, dst Prefix
	base.Reset(app, 0, app.K())
	for _, e := range entries[:len(entries)/2] {
		base.Extend(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base.CopyInto(&dst)
		for _, e := range entries[len(entries)/2:] {
			dst.Extend(e)
		}
	}
}
