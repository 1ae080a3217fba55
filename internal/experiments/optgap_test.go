package experiments

import (
	"strings"
	"testing"
)

func TestOptGapShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	cfg := OptGapConfig{Budget: Budget{Apps: 10, M: 16, Scenarios: 200, Seed: 6}, Processes: 10, K: 2}
	res, err := OptGap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Apps < 5 {
		t.Fatalf("only %d usable apps", res.Apps)
	}
	// FTSS can never beat the optimum statically.
	if res.StaticRatio > 100.0001 {
		t.Errorf("static ratio %.2f%% exceeds 100%%", res.StaticRatio)
	}
	if res.StaticRatio < 60 {
		t.Errorf("static ratio %.2f%% suspiciously low", res.StaticRatio)
	}
	// In simulation the tree adapts; it must not trail FTSS.
	if res.SimulatedFTQS < res.SimulatedFTSS-1 {
		t.Errorf("FTQS %.1f trails FTSS %.1f in simulation", res.SimulatedFTQS, res.SimulatedFTSS)
	}
	if !strings.Contains(res.Format(), "Optimality gap") {
		t.Error("Format output incomplete")
	}
}
