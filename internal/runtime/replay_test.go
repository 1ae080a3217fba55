package runtime_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ftsched/internal/core"
	"ftsched/internal/gen"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
)

// replayStep is one Replayer.Run of a differential sequence.
type replayStep struct {
	sc     runtime.Scenario
	record bool
}

// replaySteps chains each base scenario into a sequence the way
// certification drives a Replayer: the base records, then every further
// scenario changes zero to three processes of the last recorded one —
// durations in and out of [BCET, WCET], fault counts up or down — and
// records or runs as a leaf at random. Processes are drawn from the whole
// application, so some changes touch processes the record never ran.
func replaySteps(app *model.Application, bases []runtime.Scenario, rng *rand.Rand) []replayStep {
	var out []replayStep
	for _, base := range bases {
		out = append(out, replayStep{base, true})
		cur := base
		for i := 0; i < 8; i++ {
			sc := runtime.Scenario{
				Durations: append([]model.Time(nil), cur.Durations...),
				FaultsAt:  append([]int(nil), cur.FaultsAt...),
				NFaults:   cur.NFaults,
			}
			for c := rng.Intn(4); c > 0; c-- {
				p := rng.Intn(app.N())
				proc := app.Proc(model.ProcessID(p))
				switch rng.Intn(6) {
				case 0:
					sc.Durations[p] = proc.BCET
				case 1:
					sc.Durations[p] = proc.WCET
				case 2:
					sc.Durations[p] = proc.BCET + model.Time(rng.Int63n(int64(proc.WCET-proc.BCET)+1))
				case 3:
					sc.Durations[p] = proc.WCET + 1 + model.Time(rng.Int63n(int64(proc.WCET)))
				case 4:
					sc.FaultsAt[p]++
					sc.NFaults++
				case 5:
					if sc.FaultsAt[p] > 0 {
						sc.FaultsAt[p]--
						sc.NFaults--
					} else {
						sc.Durations[p] = -1 - model.Time(rng.Int63n(10))
					}
				}
			}
			record := rng.Intn(2) == 0
			out = append(out, replayStep{sc, record})
			if record {
				cur = sc
			}
		}
	}
	return out
}

// TestReplayerMatchesRunInto is the Replayer's differential test, over
// the matrix of TestDispatcherMatchesReference (seeded §6 applications ×
// recovery model × platform × envelope) plus two dispatchers whose table
// was corrupted after construction: one whose every switch targets an
// unusable node and falls back to the root, and one whose every switch
// targets the last node, whose schedule runs some processes a second
// time. Every Replayer.Run, recording or as a leaf, must return RunInto's
// Result and error; a live sink must see the same counters and
// non-per-entry histograms; and after warm-up a resumed cycle must
// allocate nothing. Over the matrix the leaves must book their utility
// by each of the Replayer's three paths: the record's α and terms as
// they are, the record's α with some terms recomputed, and the full
// recurrence after the completed set changed.
func TestReplayerMatchesRunInto(t *testing.T) {
	var paths [3]int
	envs := []*runtime.EnvelopeConfig{nil}
	for _, pol := range []runtime.DegradePolicy{runtime.PolicyStrict, runtime.PolicyShedSoft, runtime.PolicyBestEffort} {
		for _, clamp := range []bool{false, true} {
			envs = append(envs, &runtime.EnvelopeConfig{Policy: pol, Clamp: clamp})
		}
	}
	for _, seed := range []int64{1, 2} {
		cfg := gen.Default(8 + 4*int(seed))
		cfg.K = 2
		base, err := gen.Generate(rand.New(rand.NewSource(seed)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		mu := base.Mu()
		for _, rec := range []model.RecoveryModel{
			model.ReExecutionModel(),
			model.RestartModel(mu + 5),
			model.CheckpointModel(40, 3, 7),
		} {
			for _, mapped := range []bool{false, true} {
				app := base
				if mapped {
					plat := lpHP(t)
					if app, err = app.WithPlatform(plat, model.BiasedMapping(app, plat)); err != nil {
						t.Fatal(err)
					}
				}
				if !rec.IsCanonical() {
					if app, err = app.WithRecovery(rec); err != nil {
						t.Fatal(err)
					}
				}
				tree := synthesize(t, app, 6)
				var victims []model.ProcessID
				for _, e := range tree.Nodes[0].Schedule.Entries {
					victims = append(victims, e.Proc)
				}
				rng := rand.New(rand.NewSource(seed))
				steps := replaySteps(app, diffScenarios(app, victims, rng, 3), rng)
				for _, env := range envs {
					var opts []runtime.Option
					if env != nil {
						opts = append(opts, runtime.WithEnvelope(*env))
					}
					name := fmt.Sprintf("seed%d/%s/mapped=%t/%s", seed, rec, mapped, envName(env))
					t.Run(name, func(t *testing.T) { checkReplayer(t, tree, opts, core.NoNode, steps, &paths) })
				}
				for _, to := range []core.NodeID{core.NodeID(len(tree.Nodes)), core.NodeID(len(tree.Nodes) - 1)} {
					name := fmt.Sprintf("seed%d/%s/mapped=%t/corrupt-to-%d", seed, rec, mapped, to)
					t.Run(name, func(t *testing.T) { checkReplayer(t, tree, nil, to, steps, &paths) })
				}
			}
		}
	}
	for i, name := range []string{"α and terms reused", "α reused, terms recomputed", "full recurrence"} {
		if paths[i] == 0 {
			t.Errorf("no leaf booked its utility by %s (paths %v)", name, paths)
		}
	}
}

// checkReplayer runs steps through a Replayer and through RunInto, on two
// dispatchers compiled alike with their own sinks (with every segment
// redirected to node to, unless it is NoNode), and compares results,
// errors and sinks; checks that a mis-sized scenario is rejected; then
// measures the allocations of the error-free steps. It adds to paths how
// the leaves booked their utility, as Replayer.UtilityPaths counts.
func checkReplayer(t *testing.T, tree *core.Tree, opts []runtime.Option, to core.NodeID, steps []replayStep, paths *[3]int) {
	t.Helper()
	wantSink, gotSink := obs.NewMetrics(), obs.NewMetrics()
	ref := runtime.MustNewDispatcher(tree, append(opts, runtime.WithSink(wantSink))...)
	d := runtime.MustNewDispatcher(tree, append(opts, runtime.WithSink(gotSink))...)
	if to != core.NoNode {
		ref.CorruptSegments(to)
		d.CorruptSegments(to)
	}
	r := d.NewReplayer()
	var want runtime.Result
	var clean []replayStep
	for i, s := range steps {
		wantErr := ref.RunInto(&want, s.sc)
		got, gotErr := r.Run(s.sc, s.record)
		if !reflect.DeepEqual(normalised(*got), normalised(want)) || !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("step %d (record %t) %+v:\nReplayer %+v (err %v)\nRunInto  %+v (err %v)",
				i, s.record, s.sc, *got, gotErr, want, wantErr)
		}
		if gotErr == nil {
			clean = append(clean, s)
		}
	}
	kept, moved, recomputed := r.UtilityPaths()
	paths[0] += kept
	paths[1] += moved
	paths[2] += recomputed
	var sizeErr *runtime.ScenarioSizeError
	if res, err := r.Run(runtime.Scenario{}, true); res != nil || !errors.As(err, &sizeErr) {
		t.Errorf("mis-sized scenario: result %v, err %v; want nil and a *ScenarioSizeError", res, err)
	}
	ws, gs := wantSink.Snapshot(), gotSink.Snapshot()
	if !reflect.DeepEqual(gs.Counters, ws.Counters) {
		t.Errorf("sink counters\nReplayer %v\nRunInto  %v", gs.Counters, ws.Counters)
	}
	for _, h := range []obs.Histogram{obs.EnvelopeOverrunMagnitude, obs.DispatchCycleEnergy} {
		if g, w := gs.Histograms[h.Name()], ws.Histograms[h.Name()]; !reflect.DeepEqual(g, w) {
			t.Errorf("sink histogram %s\nReplayer %+v\nRunInto  %+v", h.Name(), g, w)
		}
	}
	if raceEnabled || len(clean) == 0 {
		return
	}
	run := func() {
		for _, s := range clean {
			r.Run(s.sc, s.record)
		}
	}
	run() // grow the record and the reused buffers to their high-water mark
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Errorf("%.2f allocations over %d resumed cycles, want 0", allocs, len(clean))
	}
}

// normalised maps empty HardViolations and Violations to nil: a Replayer
// rebuilds them into reused arrays, RunInto may leave them nil.
func normalised(res runtime.Result) runtime.Result {
	if len(res.HardViolations) == 0 {
		res.HardViolations = nil
	}
	if len(res.Violations) == 0 {
		res.Violations = nil
	}
	return res
}
