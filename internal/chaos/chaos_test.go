package chaos_test

import (
	"context"
	"encoding/json"
	"reflect"
	goruntime "runtime"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/certify"
	"ftsched/internal/chaos"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
)

func synthesize(t testing.TB, app *model.Application, m int) *core.Tree {
	t.Helper()
	tree, err := core.FTQS(app, core.FTQSOptions{M: m})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// fullChaos is a configuration exercising every injection kind at once.
func fullChaos(policy runtime.DegradePolicy, cycles int) chaos.Config {
	return chaos.Config{
		Cycles:         cycles,
		Seed:           42,
		Policy:         policy,
		BaseFaults:     1,
		OverrunProb:    0.3,
		OverrunFactor:  2.0,
		StuckProb:      0.05,
		RegressionProb: 0.05,
		BurstProb:      0.3,
		ExtraFaults:    2,
		SoftOnly:       true,
	}
}

// TestCampaignDeterministic: the same seed yields a bit-identical Report —
// including the exact violation-event records — for any worker count and
// across campaign re-runs on the same compiled Campaign.
func TestCampaignDeterministic(t *testing.T) {
	tree := synthesize(t, apps.Fig8(), 16)
	cfg := fullChaos(runtime.PolicyShedSoft, 300)

	var reports []*chaos.Report
	for _, workers := range []int{1, 4, 16} {
		cfg.Workers = workers
		c, err := chaos.New(tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
		rerun, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, rerun) {
			t.Fatalf("workers=%d: re-run of the same campaign diverged", workers)
		}
	}
	for i := 1; i < len(reports); i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Fatalf("reports differ across worker counts: %+v vs %+v",
				summarize(reports[0]), summarize(reports[i]))
		}
	}
	if reports[0].Injected == 0 || reports[0].Overruns == 0 || reports[0].ExtraFaults == 0 {
		t.Fatalf("vacuous campaign: %+v", summarize(reports[0]))
	}
	if len(reports[0].Records) != cfg.Cycles {
		t.Fatalf("%d records for %d cycles", len(reports[0].Records), cfg.Cycles)
	}
	for i, rec := range reports[0].Records {
		if rec.Cycle != i {
			t.Fatalf("records out of order: record %d is cycle %d", i, rec.Cycle)
		}
	}
}

func summarize(r *chaos.Report) chaos.Report {
	s := *r
	s.Records = nil
	return s
}

// TestShedSoftContractFig8 is the acceptance campaign: >=1000 seeded cycles
// on the Fig. 8 application with WCET overruns and >k fault bursts aimed at
// soft processes only, under PolicyShedSoft. The containment contract
// demands zero hard-deadline misses attributable to soft work, zero
// panics, zero in-model misses and zero detection gaps — non-vacuously.
func TestShedSoftContractFig8(t *testing.T) {
	tree := synthesize(t, apps.Fig8(), 16)
	for _, clamp := range []bool{false, true} {
		cfg := fullChaos(runtime.PolicyShedSoft, 1500)
		cfg.Clamp = clamp
		rep, err := chaos.Run(tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Panics != 0 || rep.Breaches != 0 || rep.InModelMisses != 0 || rep.DetectionGaps != 0 {
			t.Errorf("clamp=%v: contract violated: %+v", clamp, summarize(rep))
		}
		if rep.Overruns == 0 || rep.ExtraFaults == 0 || rep.Degraded == 0 {
			t.Errorf("clamp=%v: vacuous campaign: %+v", clamp, summarize(rep))
		}
		// Clamped mode keeps every duration in-model, so no overrun can
		// excuse a hard miss in a soft-only campaign: misses imply
		// breaches, and breaches are zero, so misses must be zero.
		if clamp && rep.HardMisses != 0 {
			t.Errorf("clamp=true: %d hard misses escaped containment", rep.HardMisses)
		}
	}
}

// TestPureBurstCertifyCrossCheck is the property cross-check: for trees
// that certify clean against the full fault bound, a campaign injecting
// only >k fault bursts at soft processes (zero overruns) must produce zero
// hard misses of any kind under PolicyShedSoft.
func TestPureBurstCertifyCrossCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		app  *model.Application
		m    int
	}{
		{"fig1", apps.Fig1(), 8},
		{"fig8", apps.Fig8(), 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree := synthesize(t, tc.app, tc.m)
			if _, err := certify.Certify(tree, certify.Config{}); err != nil {
				t.Fatalf("tree does not certify clean, cross-check is void: %v", err)
			}
			rep, err := chaos.Run(tree, chaos.Config{
				Cycles:      1000,
				Seed:        7,
				Policy:      runtime.PolicyShedSoft,
				BaseFaults:  tc.app.K(),
				BurstProb:   0.7,
				ExtraFaults: 3,
				SoftOnly:    true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.HardMisses != 0 {
				t.Errorf("%d hard misses under pure soft-aimed bursts", rep.HardMisses)
			}
			if rep.Panics != 0 || rep.InModelMisses != 0 {
				t.Errorf("contract violated: %+v", summarize(rep))
			}
			if rep.ExtraFaults == 0 || rep.Degraded == 0 {
				t.Errorf("vacuous campaign: %+v", summarize(rep))
			}
		})
	}
}

// TestStrictCampaignTypedErrors: under PolicyStrict every perturbed cycle
// whose excursion materialised ends in a typed *runtime.EnvelopeError whose
// events match the cycle's record and survive a JSON round-trip.
func TestStrictCampaignTypedErrors(t *testing.T) {
	tree := synthesize(t, apps.Fig8(), 16)
	rep, err := chaos.Run(tree, fullChaos(runtime.PolicyStrict, 400))
	if err != nil {
		t.Fatal(err)
	}
	if rep.StrictErrors == 0 {
		t.Fatalf("vacuous: no strict errors in %d injected cycles", rep.Injected)
	}
	if rep.Panics != 0 {
		t.Fatalf("%d panics under PolicyStrict", rep.Panics)
	}
	checked := 0
	for i := range rep.Records {
		rec := &rep.Records[i]
		if rec.Strict == nil {
			continue
		}
		outOfModel := 0
		for _, ev := range rec.Violations {
			if ev.Kind != runtime.BudgetExhausted {
				outOfModel++
			}
		}
		if outOfModel == 0 {
			t.Fatalf("cycle %d: strict error with no out-of-model event", rec.Cycle)
		}
		data, err := json.Marshal(rec.Strict)
		if err != nil {
			t.Fatal(err)
		}
		var back runtime.EnvelopeError
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&back, rec.Strict) {
			t.Fatalf("cycle %d: EnvelopeError did not survive JSON round-trip", rec.Cycle)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no strict record checked")
	}
}

// TestBestEffortDetectionComplete: PolicyBestEffort never intervenes, so
// every duration excursion that executes must still surface as an event.
func TestBestEffortDetectionComplete(t *testing.T) {
	tree := synthesize(t, apps.Fig8(), 16)
	cfg := fullChaos(runtime.PolicyBestEffort, 600)
	cfg.SoftOnly = false // aim at hard processes too
	rep, err := chaos.Run(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DetectionGaps != 0 || rep.Panics != 0 {
		t.Fatalf("contract violated: %+v", summarize(rep))
	}
	if rep.Overruns == 0 || rep.TimeRegressions == 0 {
		t.Fatalf("vacuous campaign: %+v", summarize(rep))
	}
}

// TestCampaignSinkCounters: the campaign flushes its cycle and injection
// counts to the sink, on top of whatever the dispatcher emitted.
func TestCampaignSinkCounters(t *testing.T) {
	tree := synthesize(t, apps.Fig8(), 16)
	sink := obs.NewMetrics()
	cfg := fullChaos(runtime.PolicyShedSoft, 200)
	cfg.Sink = sink
	rep, err := chaos.Run(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := sink.Counter(obs.ChaosCycles); got != int64(rep.Cycles) {
		t.Errorf("ChaosCycles counter = %d, report says %d", got, rep.Cycles)
	}
	if got := sink.Counter(obs.ChaosInjections); got != int64(rep.Injected) {
		t.Errorf("ChaosInjections counter = %d, report says %d", got, rep.Injected)
	}
	if sink.Counter(obs.EnvelopeSheds) != int64(rep.Degraded) {
		t.Errorf("EnvelopeSheds counter = %d, report says %d",
			sink.Counter(obs.EnvelopeSheds), rep.Degraded)
	}
}

// TestCampaignCancellation: a cancelled context unwinds the campaign and
// surfaces the context error.
func TestCampaignCancellation(t *testing.T) {
	tree := synthesize(t, apps.Fig8(), 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := chaos.RunContext(ctx, tree, fullChaos(runtime.PolicyShedSoft, 100000)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestScenarioReplayFidelity: Campaign.Scenario(i) re-derives the exact
// perturbed scenario cycle i executed — replaying it through an
// identically-configured standalone dispatcher reproduces the record's
// violation events, degradation flag and outcome bit-for-bit. This is the
// guarantee the ftsim -ce-out export path rests on.
func TestScenarioReplayFidelity(t *testing.T) {
	tree := synthesize(t, apps.Fig8(), 16)
	cfg := fullChaos(runtime.PolicyShedSoft, 200)
	c, err := chaos.New(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	d, err := runtime.NewDispatcher(tree, runtime.WithEnvelope(runtime.EnvelopeConfig{
		Policy: cfg.Policy, Clamp: cfg.Clamp,
	}))
	if err != nil {
		t.Fatal(err)
	}
	replayed, withEvents := 0, 0
	for _, rec := range rep.Records {
		sc, err := c.Scenario(rec.Cycle)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run(sc)
		if err != nil {
			t.Fatalf("cycle %d: replay error %v", rec.Cycle, err)
		}
		if !reflect.DeepEqual(res.Violations, rec.Violations) {
			t.Fatalf("cycle %d: replay violations %+v, record has %+v",
				rec.Cycle, res.Violations, rec.Violations)
		}
		if res.Degraded != rec.Degraded {
			t.Fatalf("cycle %d: replay degraded=%v, record says %v",
				rec.Cycle, res.Degraded, rec.Degraded)
		}
		if (len(res.HardViolations) > 0) != rec.HardMiss {
			t.Fatalf("cycle %d: replay hard violations %v, record HardMiss=%v",
				rec.Cycle, res.HardViolations, rec.HardMiss)
		}
		replayed++
		if len(rec.Violations) > 0 {
			withEvents++
		}
	}
	if replayed == 0 || withEvents == 0 {
		t.Fatalf("vacuous replay: %d cycles, %d with events", replayed, withEvents)
	}
	if _, err := c.Scenario(-1); err == nil {
		t.Fatal("Scenario(-1) accepted")
	}
	if _, err := c.Scenario(cfg.Cycles); err == nil {
		t.Fatal("Scenario(Cycles) accepted")
	}
}

// TestConfigValidation rejects impossible campaign parameters and resolves
// zero workers to GOMAXPROCS.
func TestConfigValidation(t *testing.T) {
	tree := synthesize(t, apps.Fig8(), 16)
	base := fullChaos(runtime.PolicyShedSoft, 100)
	for name, mutate := range map[string]func(*chaos.Config){
		"zero cycles":          func(c *chaos.Config) { c.Cycles = 0 },
		"negative workers":     func(c *chaos.Config) { c.Workers = -1 },
		"negative base faults": func(c *chaos.Config) { c.BaseFaults = -1 },
		"base faults above k":  func(c *chaos.Config) { c.BaseFaults = tree.App.K() + 1 },
		"overrun prob above 1": func(c *chaos.Config) { c.OverrunProb = 1.5 },
		"overrun factor <= 1":  func(c *chaos.Config) { c.OverrunFactor = 1.0 },
		"burst without faults": func(c *chaos.Config) { c.ExtraFaults = 0 },
		"unknown policy":       func(c *chaos.Config) { c.Policy = runtime.DegradePolicy(7) },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := chaos.New(tree, cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", name)
		}
	}
	// Workers 0 resolves to GOMAXPROCS, like every other engine.
	prev := goruntime.GOMAXPROCS(1)
	got, err := base.Validate()
	goruntime.GOMAXPROCS(prev)
	if err != nil || got.Workers != 1 {
		t.Errorf("under GOMAXPROCS(1): Workers = %d, err = %v; want 1", got.Workers, err)
	}
}

// TestChaosSmoke is the CI -race entry point: a short campaign under every
// policy, asserting only the universal parts of the contract (no panics,
// no in-model misses, no detection gaps).
func TestChaosSmoke(t *testing.T) {
	tree := synthesize(t, apps.Fig8(), 16)
	for _, policy := range []runtime.DegradePolicy{
		runtime.PolicyStrict, runtime.PolicyShedSoft, runtime.PolicyBestEffort,
	} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := fullChaos(policy, 150)
			cfg.Workers = 8
			rep, err := chaos.Run(tree, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Panics != 0 || rep.InModelMisses != 0 || rep.DetectionGaps != 0 {
				t.Fatalf("contract violated: %+v", summarize(rep))
			}
			if rep.Injected == 0 {
				t.Fatal("vacuous smoke campaign")
			}
		})
	}
}
