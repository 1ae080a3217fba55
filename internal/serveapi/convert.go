package serveapi

import (
	"ftsched/internal/chaos"
	"ftsched/internal/runtime"
)

// ChaosConfig materialises and validates the wire config, reusing
// chaos.Config.Validate verbatim. An empty Policy selects shed-soft; an
// unknown name is a typed *Error naming the field.
func (c ChaosConfigJSON) ChaosConfig() (chaos.Config, error) {
	policy := runtime.PolicyShedSoft
	if c.Policy != "" {
		if err := policy.UnmarshalText([]byte(c.Policy)); err != nil {
			return chaos.Config{}, &Error{Code: 400, Kind: KindInvalidConfig, Field: "Policy", Message: err.Error()}
		}
	}
	cfg := chaos.Config{
		Cycles:         c.Cycles,
		Seed:           c.Seed,
		Workers:        c.Workers,
		Policy:         policy,
		Clamp:          c.Clamp,
		BaseFaults:     c.BaseFaults,
		OverrunProb:    c.OverrunProb,
		OverrunFactor:  c.OverrunFactor,
		StuckProb:      c.StuckProb,
		RegressionProb: c.RegressionProb,
		BurstProb:      c.BurstProb,
		ExtraFaults:    c.ExtraFaults,
		Correlated:     c.Correlated,
		SoftOnly:       c.SoftOnly,
	}
	return cfg.Validate()
}

// ChaosConfigJSONOf converts a library config to its wire form.
func ChaosConfigJSONOf(c chaos.Config) ChaosConfigJSON {
	return ChaosConfigJSON{
		Cycles:         c.Cycles,
		Seed:           c.Seed,
		Workers:        c.Workers,
		Policy:         c.Policy.String(),
		Clamp:          c.Clamp,
		BaseFaults:     c.BaseFaults,
		OverrunProb:    c.OverrunProb,
		OverrunFactor:  c.OverrunFactor,
		StuckProb:      c.StuckProb,
		RegressionProb: c.RegressionProb,
		BurstProb:      c.BurstProb,
		ExtraFaults:    c.ExtraFaults,
		Correlated:     c.Correlated,
		SoftOnly:       c.SoftOnly,
	}
}

// CycleJSONOf converts a scenario to its wire form.
func CycleJSONOf(sc runtime.Scenario) CycleJSON {
	c := CycleJSON{Durations: sc.Durations}
	for _, f := range sc.FaultsAt {
		if f != 0 {
			c.FaultsAt = sc.FaultsAt
			break
		}
	}
	return c
}

// Scenario materialises the wire cycle as a runtime scenario; NFaults is
// derived from the fault counts. Model validation (sizes, duration
// bounds, fault budget) is the caller's job via Scenario.Validate.
func (c CycleJSON) Scenario() runtime.Scenario {
	sc := runtime.Scenario{Durations: c.Durations, FaultsAt: c.FaultsAt}
	if sc.FaultsAt == nil {
		sc.FaultsAt = make([]int, len(c.Durations))
	}
	for _, f := range sc.FaultsAt {
		sc.NFaults += f
	}
	return sc
}

// ResultJSON converts one dispatch outcome to its wire form. The Result's
// slices are dispatcher-owned scratch, so everything kept is copied.
func ResultJSON(res *runtime.Result) CycleResultJSON {
	out := CycleResultJSON{
		Utility:        res.Utility,
		Makespan:       res.Makespan,
		FinalNode:      res.FinalNode,
		Switches:       res.Switches,
		Recoveries:     res.Recoveries,
		FaultsConsumed: res.FaultsConsumed,
		Energy:         res.Energy,
	}
	for _, v := range res.HardViolations {
		out.HardViolations = append(out.HardViolations, int(v))
	}
	return out
}
