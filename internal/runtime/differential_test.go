package runtime_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ftsched/internal/gen"
	"ftsched/internal/model"
	"ftsched/internal/runtime"
	"ftsched/internal/sim"
)

// diffScenarios draws the differential test's scenario mix for one
// application, rounds times over: in-model cycles at every fault count up
// to k, then the excursions the envelope exists for — a WCET overrun,
// k+1 faults, a negative duration, and all three at once. Victims are
// drawn from the root schedule so injected faults materialise.
func diffScenarios(app *model.Application, victims []model.ProcessID, rng *rand.Rand, rounds int) []runtime.Scenario {
	var out []runtime.Scenario
	sample := func(nFaults int) runtime.Scenario {
		var sc runtime.Scenario
		r := sim.NewRNG(rng.Int63())
		if err := sim.SampleRNGInto(&sc, app, &r, nFaults, victims); err != nil {
			panic(err)
		}
		return sc
	}
	pick := func() model.ProcessID { return victims[rng.Intn(len(victims))] }
	overrun := func(sc *runtime.Scenario) {
		p := pick()
		w := app.Proc(p).WCET
		sc.Durations[p] = w + 1 + model.Time(rng.Int63n(int64(w)))
	}
	extraFault := func(sc *runtime.Scenario) {
		sc.FaultsAt[pick()]++
		sc.NFaults++
	}
	regress := func(sc *runtime.Scenario) {
		sc.Durations[pick()] = -1 - model.Time(rng.Int63n(10))
	}
	for i := 0; i < rounds; i++ {
		for f := 0; f <= app.K(); f++ {
			out = append(out, sample(f))
		}
		sc := sample(rng.Intn(app.K() + 1))
		overrun(&sc)
		out = append(out, sc)
		sc = sample(app.K())
		extraFault(&sc)
		out = append(out, sc)
		sc = sample(rng.Intn(app.K() + 1))
		regress(&sc)
		out = append(out, sc)
		sc = sample(app.K())
		overrun(&sc)
		extraFault(&sc)
		regress(&sc)
		out = append(out, sc)
	}
	return out
}

// TestDispatcherMatchesReference is the differential oracle of the split
// dispatcher: over seeded §6 applications and every combination of
// recovery model, platform and envelope, each scenario's Result (field for
// field), RunTrace events and error must equal the frozen monolithic
// interpreter's, and every combination must stay at 0 allocs per cycle.
func TestDispatcherMatchesReference(t *testing.T) {
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
				scs := diffScenarios(app, victims, rand.New(rand.NewSource(seed)), 10)
				for _, env := range envs {
					name := fmt.Sprintf("seed%d/%s/mapped=%t/%s", seed, rec, mapped, envName(env))
					t.Run(name, func(t *testing.T) {
						var opts []runtime.Option
						if env != nil {
							opts = append(opts, runtime.WithEnvelope(*env))
						}
						d := runtime.MustNewDispatcher(tree, opts...)
						checkAgainstReference(t, d, env, scs)
					})
				}
			}
		}
	}
}

func envName(env *runtime.EnvelopeConfig) string {
	if env == nil {
		return "none"
	}
	if env.Clamp {
		return env.Policy.String() + "+clamp"
	}
	return env.Policy.String()
}

// checkAgainstReference runs every scenario through the dispatcher's Run
// and RunTrace and through the reference, asserting identical results,
// events and errors, then measures the allocations of the cycles that
// return no error (a strict abort copies its event record by design).
func checkAgainstReference(t *testing.T, d *runtime.Dispatcher, env *runtime.EnvelopeConfig, scs []runtime.Scenario) {
	t.Helper()
	var clean []runtime.Scenario
	for i, sc := range scs {
		want, wantEv, wantErr := d.ReferenceRun(env, sc)
		got, gotErr := d.Run(sc)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("scenario %d %+v:\nRun       %+v (err %v)\nreference %+v (err %v)", i, sc, got, gotErr, want, wantErr)
		}
		got, gotEv, gotErr := d.RunTrace(sc)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotEv, wantEv) || !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("scenario %d %+v:\nRunTrace  %+v %v (err %v)\nreference %+v %v (err %v)", i, sc, got, gotEv, gotErr, want, wantEv, wantErr)
		}
		if gotErr == nil {
			clean = append(clean, sc)
		}
	}
	if raceEnabled || len(clean) == 0 {
		return
	}
	var res runtime.Result
	for _, sc := range clean {
		d.RunInto(&res, sc) // grow the reused buffers to their high-water mark
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, sc := range clean {
			d.RunInto(&res, sc)
		}
	})
	if allocs != 0 {
		t.Errorf("%.2f allocations over %d cycles, want 0", allocs, len(clean))
	}
}
