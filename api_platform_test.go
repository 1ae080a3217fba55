package ftsched_test

import (
	"bytes"
	"testing"

	"ftsched"
)

// TestPublicPlatformPipeline drives the heterogeneous-platform surface end
// to end through the facade: build a two-core platform, map the paper's
// Fig. 1 application onto it, synthesise, persist (v3), dispatch and
// evaluate — and check the energy accounting against the single-core run.
func TestPublicPlatformPipeline(t *testing.T) {
	plat, err := ftsched.NewPlatform(
		ftsched.Core{Name: "lp", Speed: 1, PowerActive: 1, PowerIdle: 0.05},
		ftsched.Core{Name: "hp", Speed: 2, PowerActive: 3, PowerIdle: 0.15},
	)
	if err != nil {
		t.Fatal(err)
	}
	var _ *ftsched.Platform = plat
	parsed, err := ftsched.ParseCoreSpec("lp:1:1:0.05,hp:2:3:0.15")
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Equal(plat) {
		t.Fatalf("core-spec parse diverged: %v vs %v", parsed, plat)
	}
	base := ftsched.PaperFig1()
	m := ftsched.BiasedMapping(base, plat)
	var zero ftsched.CoreID
	for _, c := range m.Primary {
		if c != zero {
			t.Fatalf("biased mapping put a primary on core %d, want the low-power core", c)
		}
	}
	for _, c := range m.Recovery {
		if c != ftsched.CoreID(1) {
			t.Fatalf("biased mapping put a recovery on core %d, want the fastest core", c)
		}
	}
	var mapping ftsched.Mapping = m
	app, err := base.WithPlatform(plat, mapping)
	if err != nil {
		t.Fatal(err)
	}

	tree, err := ftsched.FTQS(app, ftsched.FTQSOptions{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := ftsched.VerifyTree(tree); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ftsched.WriteTree(&buf, tree); err != nil {
		t.Fatal(err)
	}
	back, err := ftsched.ReadTree(&buf, app)
	if err != nil {
		t.Fatal(err)
	}

	cfg := ftsched.MCConfig{Scenarios: 800, Faults: 1, Seed: 7, Workers: 3}
	het, err := ftsched.MonteCarlo(back, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if het.HardViolations != 0 {
		t.Fatalf("%d hard violations on the mapped tree", het.HardViolations)
	}
	if het.MeanEnergy <= 0 || het.MeanEnergyIdle <= 0 ||
		het.MeanEnergy != het.MeanEnergyActive+het.MeanEnergyIdle {
		t.Fatalf("energy split inconsistent: %v = %v + %v",
			het.MeanEnergy, het.MeanEnergyActive, het.MeanEnergyIdle)
	}

	// Canonical single-core run of the same application: energy equals the
	// core's busy time (active power 1, idle power 0).
	stree, err := ftsched.FTQS(base, ftsched.FTQSOptions{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	single, err := ftsched.MonteCarlo(stree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if single.MeanEnergyIdle != 0 || single.MeanEnergy != single.MeanEnergyActive {
		t.Fatalf("canonical energy split inconsistent: %+v", single)
	}
}
