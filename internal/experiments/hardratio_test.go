package experiments

import (
	"strings"
	"testing"
)

func TestHardRatioShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	cfg := HardRatioConfig{
		Budget:    Budget{Apps: 3, M: 16, Scenarios: 200, Seed: 8},
		Ratios:    []float64{0.25, 0.75},
		Processes: 20,
	}
	res, err := HardRatio(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Apps == 0 {
			t.Fatalf("ratio %.2f: no usable apps", row.Ratio)
		}
		// FTQS is the base: FTSS can never exceed it meaningfully.
		if row.FTSS > 101 {
			t.Errorf("ratio %.2f: FTSS %g beats FTQS", row.Ratio, row.FTSS)
		}
		if row.RootDropPct < 0 || row.RootDropPct > 100 {
			t.Errorf("ratio %.2f: drop%% = %g", row.Ratio, row.RootDropPct)
		}
	}
	if !strings.Contains(res.Format(), "mix sweep") {
		t.Error("Format output incomplete")
	}
}
