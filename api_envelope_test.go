package ftsched_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"ftsched"
	"ftsched/internal/apps"
)

// fig8Tree synthesises the paper's Fig. 8 tree through the facade.
func fig8Tree(t *testing.T) (*ftsched.Application, *ftsched.Tree) {
	t.Helper()
	app := apps.Fig8()
	tree, err := ftsched.FTQS(app, ftsched.FTQSOptions{M: 16})
	if err != nil {
		t.Fatal(err)
	}
	return app, tree
}

// TestEnvelopeFacade drives the out-of-model containment layer end to end
// through the facade: a WCET overrun under each policy, the recorded
// violation, and the typed strict error.
func TestEnvelopeFacade(t *testing.T) {
	app, tree := fig8Tree(t)
	sc := aetScenario(app)
	soft := app.SoftIDs()[0]
	sc.Durations[soft] = app.Proc(soft).WCET + 25

	d, err := ftsched.NewDispatcher(tree, ftsched.WithEnvelope(ftsched.EnvelopeConfig{Policy: ftsched.PolicyShedSoft}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("overrun under PolicyShedSoft did not degrade")
	}
	if len(res.Violations) != 1 {
		t.Fatalf("recorded violations %v, want one WCET overrun", res.Violations)
	}
	if ev := res.Violations[0]; ev.Kind.String() != "wcet-overrun" || ev.Proc != soft || ev.Magnitude != 25 {
		t.Fatalf("violation %+v, want a 25-unit wcet-overrun on process %d", ev, soft)
	}
	if len(res.HardViolations) != 0 {
		t.Fatalf("hard violations %v under PolicyShedSoft", res.HardViolations)
	}

	// Best effort records without intervening.
	d, err = ftsched.NewDispatcher(tree, ftsched.WithEnvelope(ftsched.EnvelopeConfig{Policy: ftsched.PolicyBestEffort}))
	if err != nil {
		t.Fatal(err)
	}
	if res, err = d.Run(sc); err != nil || res.Degraded {
		t.Fatalf("best effort: err=%v degraded=%v", err, res.Degraded)
	}

	// Strict returns the typed error, which round-trips through JSON.
	d, err = ftsched.NewDispatcher(tree, ftsched.WithEnvelope(ftsched.EnvelopeConfig{Policy: ftsched.PolicyStrict}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Run(sc)
	var envErr *ftsched.EnvelopeError
	if !errors.As(err, &envErr) {
		t.Fatalf("strict run returned %T (%v), want *EnvelopeError", err, err)
	}
	data, err := json.Marshal(envErr)
	if err != nil {
		t.Fatal(err)
	}
	var back ftsched.EnvelopeError
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, envErr) {
		t.Fatal("EnvelopeError did not survive a JSON round-trip")
	}
}

// TestChaosFacade runs a seeded chaos campaign through the facade and
// checks the containment contract plus report determinism.
func TestChaosFacade(t *testing.T) {
	_, tree := fig8Tree(t)
	cfg := ftsched.ChaosConfig{
		Cycles:        400,
		Seed:          9,
		Policy:        ftsched.PolicyShedSoft,
		BaseFaults:    1,
		OverrunProb:   0.3,
		OverrunFactor: 1.8,
		BurstProb:     0.3,
		ExtraFaults:   2,
		SoftOnly:      true,
	}
	var campaign *ftsched.ChaosCampaign
	campaign, err := ftsched.NewChaosCampaign(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rep *ftsched.ChaosReport
	rep, err = campaign.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Panics != 0 || rep.Breaches != 0 || rep.InModelMisses != 0 || rep.DetectionGaps != 0 {
		t.Fatalf("containment contract violated: %+v", rep)
	}
	if rep.Overruns == 0 || rep.ExtraFaults == 0 {
		t.Fatalf("vacuous campaign: %+v", rep)
	}
	again, err := ftsched.RunChaos(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, again) {
		t.Fatal("RunChaos diverged from an identically-seeded campaign")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ftsched.RunChaosContext(ctx, tree, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
}
