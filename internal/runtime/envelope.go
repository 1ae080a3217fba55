package runtime

import (
	"fmt"

	"ftsched/internal/model"
)

// DegradePolicy selects how a Dispatcher with an attached envelope
// (WithEnvelope) reacts to the first out-of-model event of a cycle — a
// WCET overrun, a fault beyond the application bound k, or a time
// regression. The paper's guarantees hold only inside its fault model;
// the policy decides what the runtime still promises outside it.
type DegradePolicy int

const (
	// PolicyStrict stops dispatching after accounting the violating entry
	// and returns a typed *EnvelopeError carrying the full event record.
	// Hard processes that never ran are reported as violations. The zero
	// value: the strictest containment is the default.
	PolicyStrict DegradePolicy = iota
	// PolicyShedSoft drops all remaining soft processes and finishes the
	// hard ones on a precomputed emergency hard-only suffix schedule,
	// granting them unlimited re-executions. Guard dispatch stops (the
	// tree's switch guards price soft utility that no longer exists).
	PolicyShedSoft
	// PolicyBestEffort keeps dispatching the unmodified schedule and only
	// records the violations on Result.Violations.
	PolicyBestEffort
)

// String implements fmt.Stringer.
func (p DegradePolicy) String() string {
	switch p {
	case PolicyStrict:
		return "strict"
	case PolicyShedSoft:
		return "shed-soft"
	case PolicyBestEffort:
		return "best-effort"
	default:
		return fmt.Sprintf("DegradePolicy(%d)", int(p))
	}
}

// MarshalText implements encoding.TextMarshaler, so policies round-trip
// through JSON as their stable names.
func (p DegradePolicy) MarshalText() ([]byte, error) {
	switch p {
	case PolicyStrict, PolicyShedSoft, PolicyBestEffort:
		return []byte(p.String()), nil
	default:
		return nil, fmt.Errorf("runtime: unknown DegradePolicy %d", int(p))
	}
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (p *DegradePolicy) UnmarshalText(text []byte) error {
	switch string(text) {
	case "strict":
		*p = PolicyStrict
	case "shed-soft":
		*p = PolicyShedSoft
	case "best-effort":
		*p = PolicyBestEffort
	default:
		return fmt.Errorf("runtime: unknown degrade policy %q", text)
	}
	return nil
}

// ViolationKind classifies one envelope event.
type ViolationKind int

const (
	// WCETOverrun: an execution took longer than the process WCET
	// (out-of-model; triggers the policy).
	WCETOverrun ViolationKind = iota
	// ExtraFault: a fault was consumed beyond the application bound k
	// (out-of-model; triggers the policy).
	ExtraFault
	// BudgetExhausted: a process was abandoned after exhausting its
	// recovery budget. This is in-model behaviour — the paper drops soft
	// processes out of budget — so it is informational: recorded on every
	// Result, even without an envelope, and never triggers the policy.
	BudgetExhausted
	// TimeRegression: an execution reported a negative duration — observed
	// time ran backwards mid-cycle (out-of-model; triggers the policy).
	TimeRegression
)

// String implements fmt.Stringer.
func (k ViolationKind) String() string {
	switch k {
	case WCETOverrun:
		return "wcet-overrun"
	case ExtraFault:
		return "extra-fault"
	case BudgetExhausted:
		return "budget-exhausted"
	case TimeRegression:
		return "time-regression"
	default:
		return fmt.Sprintf("ViolationKind(%d)", int(k))
	}
}

// MarshalText implements encoding.TextMarshaler.
func (k ViolationKind) MarshalText() ([]byte, error) {
	switch k {
	case WCETOverrun, ExtraFault, BudgetExhausted, TimeRegression:
		return []byte(k.String()), nil
	default:
		return nil, fmt.Errorf("runtime: unknown ViolationKind %d", int(k))
	}
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *ViolationKind) UnmarshalText(text []byte) error {
	switch string(text) {
	case "wcet-overrun":
		*k = WCETOverrun
	case "extra-fault":
		*k = ExtraFault
	case "budget-exhausted":
		*k = BudgetExhausted
	case "time-regression":
		*k = TimeRegression
	default:
		return fmt.Errorf("runtime: unknown violation kind %q", text)
	}
	return nil
}

// ViolationEvent is one envelope event of a cycle. Magnitude depends on
// the kind: the time beyond WCET for WCETOverrun, how far the consumed
// fault count exceeds k for ExtraFault (1 for the k+1-th fault), the
// number of faults that hit the abandoned process for BudgetExhausted,
// and the amount time ran backwards for TimeRegression. At is the
// detection time: for WCETOverrun the end of the entry's first attempt as
// executed (after Clamp, core-speed scaling and checkpoint overheads),
// for ExtraFault the end of the faulted attempt, for BudgetExhausted the
// abandonment, and for TimeRegression the entry's start.
type ViolationEvent struct {
	Kind      ViolationKind   `json:"kind"`
	Proc      model.ProcessID `json:"proc"`
	At        model.Time      `json:"at"`
	Magnitude model.Time      `json:"magnitude"`
}

// EnvelopeConfig configures the out-of-model containment layer attached
// with WithEnvelope.
type EnvelopeConfig struct {
	// Policy is applied at the first out-of-model event of a cycle. The
	// zero value is PolicyStrict.
	Policy DegradePolicy
	// Clamp truncates out-of-model durations before they advance the
	// cycle clock — a WCET overrun executes for exactly WCET, a time
	// regression for 0 — modelling a watchdog that cuts the process off
	// at its budget. The violation is still recorded and still triggers
	// the policy; only the timeline stays in-model.
	Clamp bool
}

// WithEnvelope attaches an out-of-model containment envelope to the
// Dispatcher: every cycle, WCET overruns, faults beyond k and time
// regressions are detected (at the completion of the affected execution,
// matching the paper's fault-detection architecture), recorded on
// Result.Violations and counted on the obs Envelope* counters, and cfg's
// DegradePolicy is applied at the first such event. PolicyShedSoft
// precomputes emergency hard-only suffix schedules for every tree node at
// construction time, so the shed path performs no allocation and no scan
// per cycle.
func WithEnvelope(cfg EnvelopeConfig) Option {
	return func(d *Dispatcher) {
		d.env = &cfg
	}
}

// EnvelopeError is returned by Run, RunInto and RunTrace under
// PolicyStrict when a cycle left the fault model. The Result passed to
// RunInto is still fully accounted up to the abort point (hard processes
// that never ran appear in Result.HardViolations), so callers can both
// fail fast and inspect the partial cycle.
type EnvelopeError struct {
	// Policy is the policy that was in force (always PolicyStrict today).
	Policy DegradePolicy `json:"policy"`
	// Events is the cycle's full violation record, in detection order —
	// an independent copy, still valid after the Result is reused.
	Events []ViolationEvent `json:"events"`
}

// Error implements error.
func (e *EnvelopeError) Error() string {
	first := "none"
	if len(e.Events) > 0 {
		ev := e.Events[0]
		first = fmt.Sprintf("%s on process %d at %d", ev.Kind, ev.Proc, ev.At)
	}
	return fmt.Sprintf("runtime: cycle left the fault model under %s policy: %d event(s), first %s",
		e.Policy, len(e.Events), first)
}
