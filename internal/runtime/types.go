package runtime

import (
	"fmt"

	"ftsched/internal/model"
)

// Scenario fixes everything that is random in one operation cycle: the
// actual execution time of every process and the processes hit by
// transient faults.
//
// Modelling choices (documented in DESIGN.md): a process's re-execution
// takes the same sampled duration as its primary execution (same input
// data), and each injected fault picks a victim process uniformly at
// random among the given candidates; the fault hits the victim's next
// execution attempt. A fault aimed at a process that never starts (because
// it was dropped) does not materialise, mirroring the physical reality
// that a transient fault only matters while its victim is executing.
type Scenario struct {
	// Durations[p] is the sampled actual execution time of process p,
	// uniform on [BCET, WCET].
	Durations []model.Time
	// FaultsAt[p] is the number of faults that will hit p's first
	// execution attempts.
	FaultsAt []int
	// NFaults is the total number of injected faults.
	NFaults int
}

// Validate checks a hand-built scenario against the application.
func (sc *Scenario) Validate(app *model.Application) error {
	if len(sc.Durations) != app.N() || len(sc.FaultsAt) != app.N() {
		return fmt.Errorf("sim: scenario sized for %d processes, application has %d",
			len(sc.Durations), app.N())
	}
	total := 0
	for id := 0; id < app.N(); id++ {
		p := app.ProcRef(model.ProcessID(id))
		if sc.Durations[id] < p.BCET || sc.Durations[id] > p.WCET {
			return fmt.Errorf("sim: duration %d of %s outside [%d,%d]",
				sc.Durations[id], p.Name, p.BCET, p.WCET)
		}
		if sc.FaultsAt[id] < 0 {
			return fmt.Errorf("sim: negative fault count on %s", p.Name)
		}
		total += sc.FaultsAt[id]
	}
	if total != sc.NFaults {
		return fmt.Errorf("sim: fault counts sum to %d, NFaults is %d", total, sc.NFaults)
	}
	if sc.NFaults > app.K() {
		return fmt.Errorf("sim: %d faults exceed the application bound k=%d", sc.NFaults, app.K())
	}
	return nil
}

// ProcessOutcome records how one process ended in a simulated cycle.
type ProcessOutcome int

const (
	// NotScheduled: the process was dropped off-line (absent from the
	// active schedule) or skipped after a schedule switch.
	NotScheduled ProcessOutcome = iota
	// Completed: the process ran to completion (possibly re-executed).
	Completed
	// AbandonedByFault: a fault hit the process and its recovery budget
	// was exhausted; it was dropped at run time.
	AbandonedByFault
)

// Result is the outcome of executing one scenario.
type Result struct {
	// Utility is the total utility of the cycle: Σ α_i · U_i(t_i^c) over
	// the soft processes that completed.
	Utility float64
	// Outcomes and CompletionTimes are indexed by process ID;
	// CompletionTimes is meaningful only for Completed processes.
	Outcomes        []ProcessOutcome
	CompletionTimes []model.Time
	// HardViolations lists hard processes that missed their deadline or
	// were not executed. It must stay empty for any schedule or tree
	// synthesised by this library with NFaults <= k; a non-empty slice
	// indicates a scheduler bug.
	HardViolations []model.ProcessID
	// Makespan is the completion time of the last executed entry.
	Makespan model.Time
	// Switches counts quasi-static schedule switches taken.
	Switches int
	// FinalNode is the ID of the tree node active at the end.
	FinalNode int
	// FaultsConsumed counts injected faults that actually hit an
	// executing process.
	FaultsConsumed int
	// Recoveries counts re-executions performed.
	Recoveries int
	// Fallbacks counts mid-cycle switches whose target node was unusable
	// and was replaced by the root f-schedule. Always zero unless the
	// dispatch table was corrupted after construction; mirrored on the
	// obs.DispatchGuardFallbacks counter.
	Fallbacks int
	// Violations is the cycle's envelope event record, in detection
	// order. BudgetExhausted events (in-model soft abandonment) are
	// recorded on every cycle; out-of-model kinds (WCETOverrun,
	// ExtraFault, TimeRegression) require an envelope (WithEnvelope).
	// The slice is reused across RunInto calls — copy it to keep it.
	Violations []ViolationEvent
	// Degraded reports that PolicyShedSoft tripped: remaining soft work
	// was dropped and the cycle finished on the emergency hard-only
	// suffix schedule.
	Degraded bool
	// ShedSlack is the conservative slack recovered by shedding: the sum
	// of AttemptTime(WCET) under the recovery model (the fault-free
	// attempt, checkpoint overheads included) over the soft entries
	// skipped between the shed point and the first remaining hard entry.
	// Zero unless Degraded.
	ShedSlack model.Time
	// OverrunTotal is the materialised out-of-model execution excess: for
	// every attempt that ran longer than its process WCET, the excess
	// beyond WCET, summed over the cycle. A re-executed overrunning
	// process contributes once per attempt — unlike the single
	// WCETOverrun event, whose magnitude is the per-attempt excess.
	// Always zero with Clamp (truncated attempts stay in-model).
	OverrunTotal model.Time
	// Energy is the platform energy consumed by the cycle: active energy
	// (per-core busy time × active power) plus idle energy (per-core idle
	// time within the period × idle power). On the canonical single-core
	// platform (speed 1, active power 1, idle power 0) Energy equals the
	// core's busy time. EnergyActive and EnergyIdle are the two summands.
	Energy, EnergyActive, EnergyIdle float64
	// CoreBusy[c] is the wall-clock time core c spent executing (attempts
	// plus recovery overheads) during the cycle. The slice is reused
	// across RunInto calls — copy it to keep it.
	CoreBusy []model.Time
	// CoreEnergy[c] is the per-core energy (active + idle) of the cycle.
	// The slice is reused across RunInto calls — copy it to keep it.
	CoreEnergy []float64
}

// TraceEventKind classifies execution-trace events.
type TraceEventKind int

const (
	// TraceStart: an execution attempt of a process begins.
	TraceStart TraceEventKind = iota
	// TraceFault: a transient fault is detected at the end of an attempt.
	TraceFault
	// TraceRecovery: the recovery overhead µ begins (re-execution follows).
	TraceRecovery
	// TraceComplete: the process completed.
	TraceComplete
	// TraceAbandon: the process was abandoned (soft, budget exhausted).
	TraceAbandon
	// TraceSwitch: the online scheduler switched to another schedule.
	TraceSwitch
)

// String implements fmt.Stringer.
func (k TraceEventKind) String() string {
	switch k {
	case TraceStart:
		return "start"
	case TraceFault:
		return "fault"
	case TraceRecovery:
		return "recovery"
	case TraceComplete:
		return "complete"
	case TraceAbandon:
		return "abandon"
	case TraceSwitch:
		return "switch"
	default:
		return "TraceEventKind(?)"
	}
}

// TraceEvent is one timestamped event of a simulated cycle.
type TraceEvent struct {
	Kind TraceEventKind
	// At is the event time.
	At model.Time
	// Proc is the process concerned (undefined for TraceSwitch).
	Proc model.ProcessID
	// Attempt numbers the execution attempt (0 = primary execution).
	Attempt int
	// Node is the tree node switched to (TraceSwitch only).
	Node int
}
