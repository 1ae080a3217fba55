package sim

import (
	"fmt"
	"time"

	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/runtime"
	"ftsched/internal/schedule"
)

// RescheduleResult extends Result with the cost profile of the purely
// online approach the paper argues against (§1: "a purely online approach,
// which computes a new schedule every time a process fails or completes,
// incurs an unacceptable overhead").
type RescheduleResult struct {
	runtime.Result
	// Reschedules counts the synthesis invocations performed during the
	// cycle (one after every completion or abandonment).
	Reschedules int
	// SynthesisTime is the total wall-clock time spent recomputing
	// schedules — on the paper's embedded target this work would execute
	// on the node itself, between processes.
	SynthesisTime time.Duration
}

// ReschedulePlatformError reports a RunOnlineReschedule request for an
// application mapped to a platform other than the default single core at
// speed 1, which the single-clock comparator cannot simulate faithfully.
type ReschedulePlatformError struct {
	// Platform renders the offending platform.
	Platform string
}

// Error implements error.
func (e *ReschedulePlatformError) Error() string {
	return fmt.Sprintf("sim: online rescheduling models only the default platform, not %s", e.Platform)
}

// RunOnlineReschedule executes one scenario with an idealised online
// scheduler: it starts from the FTSS schedule and re-runs the suffix
// synthesis (SuffixFTSS) with the observed state after every process
// completion or run-time drop. It is the utility upper-bound comparator
// for FTQS — a quasi-static tree of unbounded size converges to it — and
// its SynthesisTime is the overhead the quasi-static approach avoids.
//
// Hard guarantees are preserved: every recomputed suffix is verified
// schedulable from the current time with the remaining fault budget; if
// the synthesis fails (or would be unsafe), the scheduler keeps the
// previous — still guaranteed — remainder.
//
// The comparator runs every attempt at nominal speed on a single clock, so
// it models only the default platform (one core at speed 1); for any other
// platform it returns a *ReschedulePlatformError, because the suffixes it
// synthesises are checked against per-core timelines it does not simulate.
func RunOnlineReschedule(app *model.Application, root *schedule.FSchedule, sc Scenario) (RescheduleResult, error) {
	if plat := app.Platform(); !plat.IsDefault() {
		return RescheduleResult{}, &ReschedulePlatformError{Platform: plat.String()}
	}
	var res RescheduleResult
	kern := runtime.NewKernel(app, &res.Result, sc)
	executedIDs := make([]model.ProcessID, 0, app.N())
	droppedIDs := make([]model.ProcessID, 0, app.N())
	// The active remainder is consumed by index: root.Entries is never
	// mutated, and every accepted re-synthesis replaces the slice
	// wholesale, so no per-cycle defensive copy is needed. The drop
	// scratch is likewise reused across iterations.
	remaining := root.Entries
	idx := 0
	dropBuf := make([]model.ProcessID, 0, app.N())

	for idx < len(remaining) {
		e := remaining[idx]
		idx++
		now, completed := kern.Run(e)
		res.Makespan = now
		if completed {
			executedIDs = append(executedIDs, e.Proc)
		} else {
			droppedIDs = append(droppedIDs, e.Proc)
		}

		if idx >= len(remaining) {
			break
		}
		// Recompute the remainder for the observed state.
		kRem := max(app.K()-res.FaultsConsumed, 0)
		// A process that was passed over while one of its successors
		// executed must stay out of future schedules: its consumer
		// already ran on the stale value (same soundness rule as FTQS
		// revival).
		drop := append(dropBuf[:0], droppedIDs...)
		for id := 0; id < app.N(); id++ {
			pid := model.ProcessID(id)
			if res.Outcomes[id] != runtime.NotScheduled {
				continue
			}
			for _, s := range app.Succs(pid) {
				if res.Outcomes[s] == runtime.Completed {
					drop = append(drop, pid)
					break
				}
			}
		}
		dropBuf = drop[:0]
		t0 := time.Now()
		suffix, err := core.SuffixFTSS(app, executedIDs, drop, now, kRem)
		res.SynthesisTime += time.Since(t0)
		res.Reschedules++
		if err == nil && len(suffix) > 0 && schedule.Schedulable(app, suffix, now, kRem) {
			remaining = suffix
			idx = 0
		}
		// On failure keep the previous remainder: its shared slack was
		// sized for the faults that can still occur.
	}
	res.FinalNode = -1 // no tree node: schedules are synthesised live
	kern.Finish()
	return res, nil
}
