package runtime_test

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
)

// inModel samples a scenario within the fault model (durations in
// [BCET, WCET], at most k faults).
func inModel(t testing.TB, app *model.Application, rng *rand.Rand, faults int) runtime.Scenario {
	t.Helper()
	return mustSample(app, rng, faults)
}

// countKind tallies the violation events of one kind.
func countKind(events []runtime.ViolationEvent, kind runtime.ViolationKind) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// outOfModelKinds counts the events that leave the fault model (everything
// but the informational BudgetExhausted).
func outOfModelKinds(events []runtime.ViolationEvent) int {
	return len(events) - countKind(events, runtime.BudgetExhausted)
}

// TestEnvelopeInModelTransparent: inside the fault model the envelope must
// be invisible — for every policy and clamp mode, results are identical to
// a plain dispatcher, nothing degrades, no out-of-model event is recorded
// and PolicyStrict never errors.
func TestEnvelopeInModelTransparent(t *testing.T) {
	app := apps.CruiseController()
	tree := synthesize(t, app, 20)
	plain := runtime.MustNewDispatcher(tree)
	for _, policy := range []runtime.DegradePolicy{runtime.PolicyStrict, runtime.PolicyShedSoft, runtime.PolicyBestEffort} {
		for _, clamp := range []bool{false, true} {
			d := runtime.MustNewDispatcher(tree, runtime.WithEnvelope(runtime.EnvelopeConfig{Policy: policy, Clamp: clamp}))
			rng := rand.New(rand.NewSource(101))
			var res runtime.Result
			for i := 0; i < 300; i++ {
				sc := inModel(t, app, rng, i%(app.K()+1))
				want := mustRun(t, plain, sc)
				if err := d.RunInto(&res, sc); err != nil {
					t.Fatalf("%v clamp=%v scenario %d: unexpected error %v", policy, clamp, i, err)
				}
				if !resultsEqual(&res, &want) {
					t.Fatalf("%v clamp=%v scenario %d: envelope changed the result", policy, clamp, i)
				}
				if res.Degraded || res.ShedSlack != 0 {
					t.Fatalf("%v clamp=%v scenario %d: degraded inside the model", policy, clamp, i)
				}
				if n := outOfModelKinds(res.Violations); n != 0 {
					t.Fatalf("%v clamp=%v scenario %d: %d out-of-model events inside the model: %+v",
						policy, clamp, i, n, res.Violations)
				}
			}
		}
	}
}

// TestBudgetExhaustedRecorded: the recovery-abandon path must leave a
// trace on every Result — one BudgetExhausted event per abandoned process,
// with no envelope attached at all — and must feed the
// obs.EnvelopeBudgetExhausted counter.
func TestBudgetExhaustedRecorded(t *testing.T) {
	app := apps.CruiseController()
	tree := synthesize(t, app, 20)
	m := obs.NewMetrics()
	d := runtime.MustNewDispatcher(tree, runtime.WithSink(m))
	rng := rand.New(rand.NewSource(103))
	var res runtime.Result
	seen, events := 0, int64(0)
	for i := 0; i < 400; i++ {
		sc := inModel(t, app, rng, app.K())
		if err := d.RunInto(&res, sc); err != nil {
			t.Fatal(err)
		}
		for id, out := range res.Outcomes {
			got := 0
			for _, ev := range res.Violations {
				if ev.Kind == runtime.BudgetExhausted && ev.Proc == model.ProcessID(id) {
					got++
					if ev.Magnitude < 1 {
						t.Fatalf("scenario %d: BudgetExhausted magnitude %d, want >= 1 faults", i, ev.Magnitude)
					}
				}
			}
			want := 0
			if out == runtime.AbandonedByFault {
				want = 1
			}
			if got != want {
				t.Fatalf("scenario %d: process %d outcome %v has %d BudgetExhausted events, want %d",
					i, id, out, got, want)
			}
			seen += want
		}
		events += int64(countKind(res.Violations, runtime.BudgetExhausted))
	}
	if seen == 0 {
		t.Fatal("no abandonment observed in 400 k-fault scenarios; test is vacuous")
	}
	if got := m.Counter(obs.EnvelopeBudgetExhausted); got != events {
		t.Errorf("EnvelopeBudgetExhausted counter = %d, want %d", got, events)
	}
}

// fig8Fixture synthesises the Fig. 8 tree and returns a zero-fault
// in-model scenario with every duration at its AET.
func fig8Fixture(t testing.TB) (*model.Application, *runtime.Dispatcher, runtime.Scenario) {
	t.Helper()
	app := apps.Fig8()
	tree := synthesize(t, app, 16)
	plain := runtime.MustNewDispatcher(tree)
	sc := runtime.Scenario{
		Durations: make([]model.Time, app.N()),
		FaultsAt:  make([]int, app.N()),
	}
	for id := 0; id < app.N(); id++ {
		sc.Durations[id] = app.Proc(model.ProcessID(id)).AET
	}
	return app, plain, sc
}

// envDispatcher compiles the Fig. 8 tree with the given envelope config.
func envDispatcher(t testing.TB, cfg runtime.EnvelopeConfig) *runtime.Dispatcher {
	t.Helper()
	return runtime.MustNewDispatcher(synthesize(t, apps.Fig8(), 16), runtime.WithEnvelope(cfg))
}

// TestEnvelopeWCETOverrun: an execution beyond WCET must be recorded with
// its magnitude and handled per policy — best-effort keeps the plain
// timeline, clamp truncates it to the in-model one, shed-soft degrades to
// the hard-only suffix, strict returns the typed error.
func TestEnvelopeWCETOverrun(t *testing.T) {
	app, plain, base := fig8Fixture(t)
	const delta = 37
	p2 := app.IDByName("P2") // soft, scheduled before P5 in the root schedule
	sc := base
	sc.Durations = append([]model.Time(nil), base.Durations...)
	sc.Durations[p2] = app.Proc(p2).WCET + delta

	t.Run("best-effort", func(t *testing.T) {
		d := envDispatcher(t, runtime.EnvelopeConfig{Policy: runtime.PolicyBestEffort})
		res, err := d.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		want := mustRun(t, plain, sc)
		if !resultsEqual(&res, &want) {
			t.Error("best-effort changed the timeline")
		}
		if res.Degraded {
			t.Error("best-effort degraded")
		}
		if n := countKind(res.Violations, runtime.WCETOverrun); n != 1 {
			t.Fatalf("%d WCETOverrun events, want 1: %+v", n, res.Violations)
		}
		ev := res.Violations[0]
		if ev.Proc != p2 || ev.Magnitude != delta {
			t.Errorf("event %+v, want proc %d magnitude %d", ev, p2, delta)
		}
	})

	t.Run("clamp", func(t *testing.T) {
		d := envDispatcher(t, runtime.EnvelopeConfig{Policy: runtime.PolicyBestEffort, Clamp: true})
		res, err := d.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		clamped := base
		clamped.Durations = append([]model.Time(nil), base.Durations...)
		clamped.Durations[p2] = app.Proc(p2).WCET
		want := mustRun(t, plain, clamped)
		if !resultsEqual(&res, &want) {
			t.Error("clamped timeline differs from an in-model WCET run")
		}
		if n := countKind(res.Violations, runtime.WCETOverrun); n != 1 {
			t.Errorf("%d WCETOverrun events, want 1", n)
		}
	})

	t.Run("shed-soft", func(t *testing.T) {
		d := envDispatcher(t, runtime.EnvelopeConfig{Policy: runtime.PolicyShedSoft})
		res, err := d.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Degraded {
			t.Fatal("shed-soft did not degrade on an overrun")
		}
		if len(res.HardViolations) != 0 {
			t.Errorf("hard violations after shedding: %v", res.HardViolations)
		}
		for _, h := range app.HardIDs() {
			if res.Outcomes[h] != runtime.Completed {
				t.Errorf("hard process %d not completed after shedding", h)
			}
		}
		if res.Outcomes[p2] != runtime.Completed {
			t.Error("the overrunning entry itself should complete (detection is at completion)")
		}
	})

	t.Run("strict", func(t *testing.T) {
		d := envDispatcher(t, runtime.EnvelopeConfig{Policy: runtime.PolicyStrict})
		res, err := d.Run(sc)
		var envErr *runtime.EnvelopeError
		if !errors.As(err, &envErr) {
			t.Fatalf("error %v, want *EnvelopeError", err)
		}
		if envErr.Policy != runtime.PolicyStrict {
			t.Errorf("error policy %v", envErr.Policy)
		}
		if !reflect.DeepEqual(envErr.Events, res.Violations) {
			t.Errorf("error events %+v != result violations %+v", envErr.Events, res.Violations)
		}
		if res.Outcomes[p2] != runtime.Completed {
			t.Error("violating entry should be accounted before the abort")
		}
		// Dispatching stopped: the hard process after the violation never
		// ran and must be reported.
		p5 := app.IDByName("P5")
		if res.Outcomes[p5] == runtime.Completed {
			t.Error("strict kept dispatching past the violation")
		}
		found := false
		for _, v := range res.HardViolations {
			if v == p5 {
				found = true
			}
		}
		if !found {
			t.Errorf("P5 missing from HardViolations: %v", res.HardViolations)
		}
	})
}

// TestEnvelopeExtraFault: the k+1-th consumed fault must be recorded as
// ExtraFault. Aimed at a hard process, shed-soft grants it budget-free
// re-execution and it completes; strict and best-effort abandon it at its
// in-model budget and report the hard violation.
func TestEnvelopeExtraFault(t *testing.T) {
	app, _, base := fig8Fixture(t)
	p1 := app.IDByName("P1") // hard, k = 2 recoveries
	sc := base
	sc.FaultsAt = append([]int(nil), base.FaultsAt...)
	sc.FaultsAt[p1] = app.K() + 1
	sc.NFaults = app.K() + 1

	t.Run("best-effort", func(t *testing.T) {
		d := envDispatcher(t, runtime.EnvelopeConfig{Policy: runtime.PolicyBestEffort})
		res, err := d.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if n := countKind(res.Violations, runtime.ExtraFault); n != 1 {
			t.Fatalf("%d ExtraFault events, want 1: %+v", n, res.Violations)
		}
		if n := countKind(res.Violations, runtime.BudgetExhausted); n != 1 {
			t.Errorf("%d BudgetExhausted events, want 1", n)
		}
		if res.Outcomes[p1] != runtime.AbandonedByFault {
			t.Error("best-effort must keep the in-model recovery budget")
		}
		if len(res.HardViolations) == 0 {
			t.Error("abandoned hard process not reported")
		}
	})

	t.Run("shed-soft", func(t *testing.T) {
		d := envDispatcher(t, runtime.EnvelopeConfig{Policy: runtime.PolicyShedSoft})
		res, err := d.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Degraded {
			t.Fatal("shed-soft did not degrade on an extra fault")
		}
		if res.Outcomes[p1] != runtime.Completed {
			t.Error("shed mode must re-execute the hard victim without budget")
		}
		if len(res.HardViolations) != 0 {
			t.Errorf("hard violations: %v", res.HardViolations)
		}
		if n := countKind(res.Violations, runtime.ExtraFault); n != 1 {
			t.Errorf("%d ExtraFault events, want 1", n)
		}
	})

	t.Run("strict", func(t *testing.T) {
		d := envDispatcher(t, runtime.EnvelopeConfig{Policy: runtime.PolicyStrict})
		_, err := d.Run(sc)
		var envErr *runtime.EnvelopeError
		if !errors.As(err, &envErr) {
			t.Fatalf("error %v, want *EnvelopeError", err)
		}
		if countKind(envErr.Events, runtime.ExtraFault) != 1 {
			t.Errorf("error events missing the extra fault: %+v", envErr.Events)
		}
	})
}

// TestEnvelopeExtraFaultSoftVictim: under shed-soft, an extra fault whose
// victim is soft abandons the victim immediately — no recovery time is
// burnt on work that is about to be shed. Soft entries carry small
// recovery budgets (0 in the Fig. 8 root), so the excess is routed
// through the hard P1 first: its two in-model faults are recovered, and
// the third consumed fault lands on soft P2. A root-only tree (M = 1)
// keeps guard switches from dropping P2 before the fault reaches it.
func TestEnvelopeExtraFaultSoftVictim(t *testing.T) {
	app := apps.Fig8()
	tree := synthesize(t, app, 1)
	p1, p2 := app.IDByName("P1"), app.IDByName("P2")
	sc := runtime.Scenario{
		Durations: make([]model.Time, app.N()),
		FaultsAt:  make([]int, app.N()),
		NFaults:   app.K() + 1,
	}
	for id := 0; id < app.N(); id++ {
		sc.Durations[id] = app.Proc(model.ProcessID(id)).AET
	}
	sc.FaultsAt[p1] = app.K()
	sc.FaultsAt[p2] = 1

	d := runtime.MustNewDispatcher(tree, runtime.WithEnvelope(runtime.EnvelopeConfig{Policy: runtime.PolicyShedSoft}))
	res, err := d.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("not degraded")
	}
	if res.Outcomes[p2] != runtime.AbandonedByFault {
		t.Errorf("soft victim outcome %v, want AbandonedByFault", res.Outcomes[p2])
	}
	// The victim was abandoned on policy, not on budget: exactly k
	// recoveries were spent on it (its full in-model budget at most).
	if n := countKind(res.Violations, runtime.BudgetExhausted); n != 0 {
		t.Errorf("%d BudgetExhausted events, want 0 (abandoned by shed, not by budget)", n)
	}
	if len(res.HardViolations) != 0 {
		t.Errorf("hard violations: %v", res.HardViolations)
	}
}

// TestEnvelopeTimeRegression: a negative duration is a time regression;
// clamp mode pins it to zero so the timeline matches an instantaneous
// execution.
func TestEnvelopeTimeRegression(t *testing.T) {
	app, plain, base := fig8Fixture(t)
	p3 := app.IDByName("P3")
	sc := base
	sc.Durations = append([]model.Time(nil), base.Durations...)
	sc.Durations[p3] = -5

	d := envDispatcher(t, runtime.EnvelopeConfig{Policy: runtime.PolicyBestEffort})
	res, err := d.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if n := countKind(res.Violations, runtime.TimeRegression); n != 1 {
		t.Fatalf("%d TimeRegression events, want 1: %+v", n, res.Violations)
	}
	if ev := res.Violations[0]; ev.Proc != p3 || ev.Magnitude != 5 {
		t.Errorf("event %+v, want proc %d magnitude 5", ev, p3)
	}

	dc := envDispatcher(t, runtime.EnvelopeConfig{Policy: runtime.PolicyBestEffort, Clamp: true})
	resc, err := dc.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	zeroed := base
	zeroed.Durations = append([]model.Time(nil), base.Durations...)
	zeroed.Durations[p3] = 0
	want := mustRun(t, plain, zeroed)
	if !resultsEqual(&resc, &want) {
		t.Error("clamped regression differs from a zero-duration run")
	}
}

// TestEnvelopeShedSoftPureFaultBurstsHardSafe is the containment property
// the chaos campaign asserts at scale: with every duration inside
// [BCET, WCET] and fault bursts of any size aimed only at soft processes,
// PolicyShedSoft never misses a hard deadline. The first k consumed
// faults are covered by the certified in-model worst case, the k+1-th
// abandons its soft victim without recovery cost and sheds, and sheds
// remove every later soft-aimed fault from the timeline.
func TestEnvelopeShedSoftPureFaultBurstsHardSafe(t *testing.T) {
	for _, tc := range []struct {
		app *model.Application
		m   int
	}{
		{apps.Fig1(), 8},
		{apps.Fig8(), 16},
	} {
		tree := synthesize(t, tc.app, tc.m)
		d := runtime.MustNewDispatcher(tree, runtime.WithEnvelope(runtime.EnvelopeConfig{Policy: runtime.PolicyShedSoft}))
		soft := tc.app.SoftIDs()
		rng := rand.New(rand.NewSource(107))
		var res runtime.Result
		for i := 0; i < 1000; i++ {
			sc := inModel(t, tc.app, rng, 0)
			burst := rng.Intn(tc.app.K() + 4)
			for f := 0; f < burst; f++ {
				sc.FaultsAt[soft[rng.Intn(len(soft))]]++
			}
			sc.NFaults = burst
			if err := d.RunInto(&res, sc); err != nil {
				t.Fatalf("%s scenario %d: %v", tc.app.Name(), i, err)
			}
			if len(res.HardViolations) != 0 {
				t.Fatalf("%s scenario %d (burst %d): hard violations %v — containment contract broken",
					tc.app.Name(), i, burst, res.HardViolations)
			}
		}
	}
}

// TestEnvelopeErrorJSONRoundTrip: the strict error's event record must
// round-trip through JSON with symbolic kind and policy names — the
// acceptance criterion for machine-readable excursion reports.
func TestEnvelopeErrorJSONRoundTrip(t *testing.T) {
	app, _, base := fig8Fixture(t)
	p2 := app.IDByName("P2")
	sc := base
	sc.Durations = append([]model.Time(nil), base.Durations...)
	sc.Durations[p2] = app.Proc(p2).WCET + 11
	sc.FaultsAt = append([]int(nil), base.FaultsAt...)
	sc.FaultsAt[app.IDByName("P1")] = app.K() + 1
	sc.NFaults = app.K() + 1

	d := envDispatcher(t, runtime.EnvelopeConfig{Policy: runtime.PolicyStrict})
	_, err := d.Run(sc)
	var envErr *runtime.EnvelopeError
	if !errors.As(err, &envErr) {
		t.Fatalf("error %v, want *EnvelopeError", err)
	}
	if len(envErr.Events) == 0 {
		t.Fatal("no events on the error")
	}
	raw, jerr := json.Marshal(envErr)
	if jerr != nil {
		t.Fatal(jerr)
	}
	var back runtime.EnvelopeError
	if jerr := json.Unmarshal(raw, &back); jerr != nil {
		t.Fatalf("unmarshal %s: %v", raw, jerr)
	}
	if back.Policy != envErr.Policy || !reflect.DeepEqual(back.Events, envErr.Events) {
		t.Errorf("round-trip changed the error:\n  %+v\n  %+v", envErr, &back)
	}
}

// TestEnvelopeEnumText: every policy and violation kind round-trips
// through its text form, and unknown names are rejected.
func TestEnvelopeEnumText(t *testing.T) {
	for _, p := range []runtime.DegradePolicy{runtime.PolicyStrict, runtime.PolicyShedSoft, runtime.PolicyBestEffort} {
		text, err := p.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back runtime.DegradePolicy
		if err := back.UnmarshalText(text); err != nil || back != p {
			t.Errorf("policy %v: round-trip via %q -> %v, %v", p, text, back, err)
		}
	}
	for _, k := range []runtime.ViolationKind{runtime.WCETOverrun, runtime.ExtraFault, runtime.BudgetExhausted, runtime.TimeRegression} {
		text, err := k.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back runtime.ViolationKind
		if err := back.UnmarshalText(text); err != nil || back != k {
			t.Errorf("kind %v: round-trip via %q -> %v, %v", k, text, back, err)
		}
	}
	var p runtime.DegradePolicy
	if err := p.UnmarshalText([]byte("bogus")); err == nil {
		t.Error("unknown policy name accepted")
	}
	var k runtime.ViolationKind
	if err := k.UnmarshalText([]byte("bogus")); err == nil {
		t.Error("unknown violation kind accepted")
	}
	if _, err := runtime.DegradePolicy(99).MarshalText(); err == nil {
		t.Error("out-of-range policy marshalled")
	}
	if _, err := runtime.ViolationKind(99).MarshalText(); err == nil {
		t.Error("out-of-range kind marshalled")
	}
}

// TestEnvelopeRejectsUnknownPolicy: NewDispatcher must refuse an envelope
// with an out-of-range policy instead of misdispatching later.
func TestEnvelopeRejectsUnknownPolicy(t *testing.T) {
	tree := synthesize(t, apps.Fig1(), 8)
	if _, err := runtime.NewDispatcher(tree, runtime.WithEnvelope(runtime.EnvelopeConfig{Policy: runtime.DegradePolicy(7)})); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestEnvelopeAllocFree: the containment layer must keep the hot path at
// zero allocations per cycle — with and without violations, with nop and
// live sinks, including the shed path (PolicyShedSoft switching to the
// emergency suffix every cycle). PolicyStrict is gated on in-model cycles
// only: its error path copies the event record by design.
func TestEnvelopeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	app := apps.CruiseController()
	tree := synthesize(t, app, 20)
	rng := rand.New(rand.NewSource(113))
	inSc := mustSample(app, rng, 2)

	// Out-of-model: one soft overrun plus a fault burst past k.
	outSc := mustSample(app, rng, 0)
	soft := app.SoftIDs()
	outSc.Durations[soft[0]] = app.Proc(soft[0]).WCET + 50
	outSc.FaultsAt[soft[1]] = app.K() + 1
	outSc.NFaults = app.K() + 1

	for _, tc := range []struct {
		name   string
		cfg    runtime.EnvelopeConfig
		sc     runtime.Scenario
		strict bool
	}{
		{"strict/in-model", runtime.EnvelopeConfig{Policy: runtime.PolicyStrict}, inSc, true},
		{"shed-soft/in-model", runtime.EnvelopeConfig{Policy: runtime.PolicyShedSoft}, inSc, false},
		{"shed-soft/out-of-model", runtime.EnvelopeConfig{Policy: runtime.PolicyShedSoft}, outSc, false},
		{"best-effort/out-of-model", runtime.EnvelopeConfig{Policy: runtime.PolicyBestEffort}, outSc, false},
		{"best-effort/clamp", runtime.EnvelopeConfig{Policy: runtime.PolicyBestEffort, Clamp: true}, outSc, false},
	} {
		for _, sink := range []struct {
			name string
			s    obs.Sink
		}{
			{"nop", obs.NopSink{}},
			{"live", obs.NewMetrics()},
		} {
			d := runtime.MustNewDispatcher(tree, runtime.WithEnvelope(tc.cfg), runtime.WithSink(sink.s))
			var res runtime.Result
			if err := d.RunInto(&res, tc.sc); err != nil {
				t.Fatalf("%s/%s: %v", tc.name, sink.name, err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				d.RunInto(&res, tc.sc)
			})
			if allocs != 0 {
				t.Errorf("%s/%s: RunInto allocates %.2f times per cycle, want 0", tc.name, sink.name, allocs)
			}
		}
	}
}

// TestEnvelopeSinkCounters: a live sink must see envelope counters that
// match the violation records on the returned Results exactly.
func TestEnvelopeSinkCounters(t *testing.T) {
	app := apps.CruiseController()
	tree := synthesize(t, app, 20)
	m := obs.NewMetrics()
	d := runtime.MustNewDispatcher(tree, runtime.WithEnvelope(runtime.EnvelopeConfig{Policy: runtime.PolicyShedSoft}), runtime.WithSink(m))
	soft := app.SoftIDs()
	rng := rand.New(rand.NewSource(127))
	var res runtime.Result
	var overruns, extra, regressions, budget, sheds int64
	for i := 0; i < 200; i++ {
		sc := mustSample(app, rng, rng.Intn(app.K()+1))
		switch i % 4 {
		case 0:
			p := soft[rng.Intn(len(soft))]
			sc.Durations[p] = app.Proc(p).WCET + model.Time(1+rng.Intn(40))
		case 1:
			p := soft[rng.Intn(len(soft))]
			extraN := 1 + rng.Intn(2)
			sc.FaultsAt[p] += app.K() + extraN - sc.NFaults
			sc.NFaults = app.K() + extraN
		case 2:
			p := soft[rng.Intn(len(soft))]
			sc.Durations[p] = -model.Time(1 + rng.Intn(9))
		}
		if err := d.RunInto(&res, sc); err != nil {
			t.Fatal(err)
		}
		overruns += int64(countKind(res.Violations, runtime.WCETOverrun))
		extra += int64(countKind(res.Violations, runtime.ExtraFault))
		regressions += int64(countKind(res.Violations, runtime.TimeRegression))
		budget += int64(countKind(res.Violations, runtime.BudgetExhausted))
		if res.Degraded {
			sheds++
		}
	}
	if overruns == 0 || extra == 0 || regressions == 0 || sheds == 0 {
		t.Fatalf("vacuous mix: overruns=%d extra=%d regressions=%d sheds=%d", overruns, extra, regressions, sheds)
	}
	for _, c := range []struct {
		counter obs.Counter
		want    int64
	}{
		{obs.EnvelopeOverruns, overruns},
		{obs.EnvelopeExtraFaults, extra},
		{obs.EnvelopeTimeRegressions, regressions},
		{obs.EnvelopeBudgetExhausted, budget},
		{obs.EnvelopeSheds, sheds},
	} {
		if got := m.Counter(c.counter); got != c.want {
			t.Errorf("%s = %d, want %d", c.counter.Name(), got, c.want)
		}
	}
}
