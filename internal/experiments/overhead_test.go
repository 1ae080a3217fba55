package experiments

import (
	"strings"
	"testing"
)

func TestOverheadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	cfg := OverheadConfig{Budget: Budget{Apps: 3, M: 24, Scenarios: 60, Seed: 4}, Processes: 20}
	res, err := Overhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Ordering: FTSS <= FTQS <= ideal (= 100), with tolerance for
	// Monte-Carlo noise.
	if res.UtilFTSS > res.UtilFTQS+1 {
		t.Errorf("FTSS %g beats FTQS %g", res.UtilFTSS, res.UtilFTQS)
	}
	if res.UtilFTQS > 100.5 {
		t.Errorf("FTQS %g beats the ideal upper bound", res.UtilFTQS)
	}
	if res.UtilIdeal != 100 {
		t.Errorf("ideal = %g, want 100", res.UtilIdeal)
	}
	// The whole point: online re-synthesis costs much more than walking
	// the tree.
	if res.OverheadFactor < 2 {
		t.Errorf("overhead factor = %.1f, expected online rescheduling to be much slower", res.OverheadFactor)
	}
	if !strings.Contains(res.Format(), "purely online") {
		t.Error("Format output incomplete")
	}
}
