package serveapi

import (
	"ftsched/internal/certify"
	"ftsched/internal/chaos"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/runtime"
	"ftsched/internal/sim"
)

// OptionsJSON converts synthesis options to their wire form.
func OptionsJSON(o core.FTQSOptions) FTQSOptionsJSON {
	return FTQSOptionsJSON{
		M:              o.M,
		SweepSamples:   o.SweepSamples,
		MinGain:        o.MinGain,
		EvalScenarios:  o.EvalScenarios,
		DisableRevival: o.DisableRevival,
		Workers:        o.Workers,
	}
}

// Core converts wire options back to core.FTQSOptions (Sink stays nil; the
// server attaches its own).
func (o FTQSOptionsJSON) Core() core.FTQSOptions {
	return core.FTQSOptions{
		M:              o.M,
		SweepSamples:   o.SweepSamples,
		MinGain:        o.MinGain,
		EvalScenarios:  o.EvalScenarios,
		DisableRevival: o.DisableRevival,
		Workers:        o.Workers,
	}
}

// StatsJSON converts evaluation statistics to their wire form.
func StatsJSON(s sim.MCStats) MCStatsJSON {
	return MCStatsJSON{
		MeanUtility:      s.MeanUtility,
		StdDev:           s.StdDev,
		MinUtility:       s.MinUtility,
		MaxUtility:       s.MaxUtility,
		P05:              s.P05,
		P50:              s.P50,
		P95:              s.P95,
		HardViolations:   s.HardViolations,
		Degraded:         s.Degraded,
		Violations:       s.Violations,
		MeanSwitches:     s.MeanSwitches,
		MeanRecoveries:   s.MeanRecoveries,
		MeanEnergy:       s.MeanEnergy,
		MeanEnergyActive: s.MeanEnergyActive,
		MeanEnergyIdle:   s.MeanEnergyIdle,
		Scenarios:        s.Scenarios,
	}
}

// Stats converts wire statistics back to sim.MCStats.
func (j MCStatsJSON) Stats() sim.MCStats {
	return sim.MCStats{
		MeanUtility:      j.MeanUtility,
		StdDev:           j.StdDev,
		MinUtility:       j.MinUtility,
		MaxUtility:       j.MaxUtility,
		P05:              j.P05,
		P50:              j.P50,
		P95:              j.P95,
		HardViolations:   j.HardViolations,
		Degraded:         j.Degraded,
		Violations:       j.Violations,
		MeanSwitches:     j.MeanSwitches,
		MeanRecoveries:   j.MeanRecoveries,
		MeanEnergy:       j.MeanEnergy,
		MeanEnergyActive: j.MeanEnergyActive,
		MeanEnergyIdle:   j.MeanEnergyIdle,
		Scenarios:        j.Scenarios,
	}
}

// MCConfig materialises and validates the wire config, reusing
// sim.MCConfig.Validate verbatim — the same *sim.ConfigError the library
// and CLIs produce.
func (c MCConfigJSON) MCConfig() (sim.MCConfig, error) {
	cfg := sim.MCConfig{
		Scenarios: c.Scenarios,
		Faults:    c.Faults,
		Seed:      c.Seed,
		Workers:   c.Workers,
	}
	return cfg.Validate()
}

// CertifyConfig materialises and validates the wire config, reusing
// certify.Config.Validate verbatim.
func (c CertifyConfigJSON) CertifyConfig() (certify.Config, error) {
	cfg := certify.Config{
		MaxFaults:     c.MaxFaults,
		Workers:       c.Workers,
		Budget:        c.Budget,
		MaxBoundaries: c.MaxBoundaries,
	}
	return cfg.Validate()
}

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

// ReportJSON converts a certification report to its wire form.
func ReportJSON(r certify.Report) CertifyReportJSON {
	return CertifyReportJSON{
		Mode:               r.Mode,
		MaxFaults:          r.MaxFaults,
		Patterns:           r.Patterns,
		PatternsPruned:     r.PatternsPruned,
		Scenarios:          r.Scenarios,
		BisectionRuns:      r.BisectionRuns,
		WorstSlack:         r.WorstSlack,
		WorstSlackProc:     int(r.WorstSlackProc),
		MinUtility:         r.MinUtility,
		MinUtilityFaultsAt: r.MinUtilityFaultsAt,
	}
}

// Report converts a wire report back to certify.Report.
func (j CertifyReportJSON) Report() certify.Report {
	return certify.Report{
		Mode:               j.Mode,
		MaxFaults:          j.MaxFaults,
		Patterns:           j.Patterns,
		PatternsPruned:     j.PatternsPruned,
		Scenarios:          j.Scenarios,
		BisectionRuns:      j.BisectionRuns,
		WorstSlack:         j.WorstSlack,
		WorstSlackProc:     model.ProcessID(j.WorstSlackProc),
		MinUtility:         j.MinUtility,
		MinUtilityFaultsAt: j.MinUtilityFaultsAt,
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
