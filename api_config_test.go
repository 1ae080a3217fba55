package ftsched_test

import (
	"errors"
	"testing"

	"ftsched"
	"ftsched/internal/apps"
)

// The config literals are the only way to configure the engines: every
// field must be accepted as written, and a bad value must be rejected by
// the entry point with a typed error naming the offending field, like
// MonteCarlo's *MCConfigError.

func TestNewCertifyConfig(t *testing.T) {
	cfg := ftsched.CertifyConfig{
		MaxFaults:     1,
		Workers:       2,
		Budget:        10000,
		MaxBoundaries: 2,
		Sink:          ftsched.NopSink{},
	}
	app := ftsched.PaperFig1()
	tree, err := ftsched.FTQS(app, ftsched.FTQSOptions{M: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ftsched.Certify(tree, cfg)
	if err != nil {
		t.Fatalf("config literal rejected by Certify: %v", err)
	}
	if rep.MaxFaults != 1 {
		t.Fatalf("certified MaxFaults = %d, want 1", rep.MaxFaults)
	}

	var cErr *ftsched.CertifyConfigError
	if _, err := ftsched.Certify(tree, ftsched.CertifyConfig{Budget: -1}); !errors.As(err, &cErr) || cErr.Field != "Budget" {
		t.Fatalf("Certify(Budget: -1) = %v, want *CertifyConfigError on Budget", err)
	}
}

func TestNewChaosConfig(t *testing.T) {
	cfg := ftsched.ChaosConfig{
		Cycles:         50,
		Seed:           42,
		Workers:        2,
		Policy:         ftsched.PolicyShedSoft,
		Clamp:          true,
		BaseFaults:     1,
		OverrunProb:    0.3,
		OverrunFactor:  2.0,
		BurstProb:      0.2,
		ExtraFaults:    2,
		StuckProb:      0.1,
		RegressionProb: 0.1,
		Correlated:     true,
		SoftOnly:       true,
		Sink:           ftsched.NopSink{},
	}
	app := apps.Fig8()
	tree, err := ftsched.FTQS(app, ftsched.FTQSOptions{M: 6})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ftsched.RunChaos(tree, cfg)
	if err != nil {
		t.Fatalf("config literal rejected by RunChaos: %v", err)
	}
	if rep.Cycles != 50 {
		t.Fatalf("campaign ran %d cycles, want 50", rep.Cycles)
	}

	var chErr *ftsched.ChaosConfigError
	if _, err := ftsched.RunChaos(tree, ftsched.ChaosConfig{Cycles: 100, OverrunProb: 0.5, OverrunFactor: 1.0}); !errors.As(err, &chErr) || chErr.Field != "OverrunFactor" {
		t.Fatalf("RunChaos(OverrunFactor: 1.0) = %v, want *ChaosConfigError on OverrunFactor", err)
	}
	if _, err := ftsched.RunChaos(tree, ftsched.ChaosConfig{}); !errors.As(err, &chErr) || chErr.Field != "Cycles" {
		t.Fatalf("RunChaos(Cycles: 0) = %v, want *ChaosConfigError on Cycles", err)
	}
}
