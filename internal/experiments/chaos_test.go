package experiments

import (
	"strings"
	"testing"

	"ftsched/internal/runtime"
)

func TestChaosShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	cfg := Budget{Scenarios: 400, Seed: 11, M: 16}
	res, err := Chaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		rep := row.Report
		if rep.Cycles != cfg.Scenarios {
			t.Errorf("%s: %d cycles, want %d", row.Policy, rep.Cycles, cfg.Scenarios)
		}
		if rep.Injected == 0 || rep.Overruns == 0 || rep.ExtraFaults == 0 {
			t.Errorf("%s (clamp=%v): vacuous campaign %+v", row.Policy, row.Clamp, rep)
		}
		switch row.Policy {
		case runtime.PolicyStrict:
			if rep.StrictErrors == 0 {
				t.Error("strict policy raised no typed errors")
			}
		case runtime.PolicyShedSoft:
			if rep.Degraded == 0 {
				t.Error("shed-soft policy never degraded")
			}
			if row.Clamp && rep.HardMisses != 0 {
				t.Errorf("clamped shed-soft missed %d hard deadlines", rep.HardMisses)
			}
		}
	}
	out := res.Format()
	for _, want := range []string{"containment", "shed-soft", "best-effort", "strict"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q", want)
		}
	}
}
