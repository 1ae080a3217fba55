package experiments

import (
	"strings"
	"testing"
)

func TestEnergyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	cfg := WorkloadConfig{
		Budget:    Budget{Apps: 1, M: 8, Scenarios: 200, Seed: 11},
		Processes: 8,
		Faults:    1,
	}
	res, err := Energy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Three fixtures + one generated app, each on two platforms.
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(res.Rows))
	}
	for i := 0; i < len(res.Rows); i += 2 {
		single, hetero := res.Rows[i], res.Rows[i+1]
		if single.Platform != "1-core" || hetero.Platform != "lp+hp" || single.App != hetero.App {
			t.Fatalf("row pairing broken: %+v / %+v", single, hetero)
		}
		// Canonical platform: energy is busy time — all active, no idle,
		// and the single nominal core carries everything.
		if single.MeanIdle != 0 || single.MeanEnergy != single.MeanActive {
			t.Errorf("%s 1-core: energy split %v active %v idle %v", single.App,
				single.MeanEnergy, single.MeanActive, single.MeanIdle)
		}
		if len(single.CoreEnergy) != 1 || len(hetero.CoreEnergy) != 2 {
			t.Errorf("%s: per-core splits %d/%d, want 1/2", single.App,
				len(single.CoreEnergy), len(hetero.CoreEnergy))
		}
		// The LP+HP platform burns idle power, so it can never be free.
		if hetero.MeanIdle <= 0 || hetero.MeanEnergy <= single.MeanEnergy {
			t.Errorf("%s lp+hp: energy %v (idle %v) not above 1-core %v", hetero.App,
				hetero.MeanEnergy, hetero.MeanIdle, single.MeanEnergy)
		}
		// Both deployments must certify at least one fault.
		if single.CertifiedK < 1 || hetero.CertifiedK < 1 {
			t.Errorf("%s: certified k %d/%d", single.App, single.CertifiedK, hetero.CertifiedK)
		}
	}
	out := res.Format()
	if !strings.Contains(out, "Energy on heterogeneous platforms") || !strings.Contains(out, "lp=") {
		t.Errorf("Format output incomplete:\n%s", out)
	}
}
