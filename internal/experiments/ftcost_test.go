package experiments

import (
	"strings"
	"testing"
)

func TestFTCostShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	cfg := FTCostConfig{
		Budget:    Budget{Apps: 3, M: 16, Scenarios: 200, Seed: 9},
		Ks:        []int{0, 2, 4},
		Processes: 20,
	}
	res, err := FTCost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].K != 0 || res.Rows[0].Utility < 99.9 || res.Rows[0].Utility > 100.1 {
		t.Errorf("k=0 row must be the base 100, got %+v", res.Rows[0])
	}
	// Tolerating more faults can only cost no-fault utility (weakly).
	prev := 200.0
	for _, row := range res.Rows {
		if row.Apps == 0 {
			t.Fatalf("k=%d: no usable apps", row.K)
		}
		if row.Utility > prev+2 { // small Monte-Carlo tolerance
			t.Errorf("utility rose with larger k: %+v", res.Rows)
		}
		prev = row.Utility
	}
	if !strings.Contains(res.Format(), "Price of fault tolerance") {
		t.Error("Format output incomplete")
	}
}

func TestFTCostValidation(t *testing.T) {
	if _, err := FTCost(FTCostConfig{}); err == nil {
		t.Error("empty Ks accepted")
	}
	if _, err := FTCost(FTCostConfig{Budget: Budget{Apps: 1, M: 2, Scenarios: 10}, Ks: []int{-1}, Processes: 5}); err == nil {
		t.Error("negative k accepted")
	}
}
