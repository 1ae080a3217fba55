// Package baseline implements the straightforward comparison algorithm FTSF
// of Izosimov et al. (DATE 2008), §6:
//
//	"we obtain static non-fault-tolerant schedules that produce maximal
//	value (e.g. as in [3]). Those schedules are then made fault-tolerant
//	by adding recovery slacks to tolerate k faults in hard processes. The
//	soft processes with lowest utility value are dropped until the
//	application becomes schedulable."
//
// The non-fault-tolerant value-maximising scheduler (our stand-in for
// Cortés et al. [3]) is the FTSS list scheduler run with a zero fault
// budget: without recovery slack it reduces exactly to utility-driven list
// scheduling with dropping under deadlines — the single-schedule generator
// the paper references.
package baseline

import (
	"errors"
	"fmt"

	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/schedule"
	"ftsched/internal/utility"
)

// NonFaultTolerant synthesises a maximal-value static schedule that ignores
// faults entirely: deadlines are guaranteed for worst-case execution times
// but no recovery slack is reserved.
func NonFaultTolerant(app *model.Application) (*schedule.FSchedule, error) {
	nft, err := app.WithFaults(0, app.Mu())
	if err != nil {
		return nil, err
	}
	s, err := core.FTSS(nft)
	if err != nil {
		return nil, fmt.Errorf("baseline: no value-maximal schedule exists: %w", err)
	}
	return s, nil
}

// FTSF synthesises the baseline fault-tolerant schedule: the
// non-fault-tolerant value-maximal order, patched with k recovery slacks on
// the hard processes, with the lowest-utility soft processes dropped until
// the worst-case fault scenario fits the deadlines and the period.
func FTSF(app *model.Application) (*schedule.FSchedule, error) {
	nft, err := NonFaultTolerant(app)
	if err != nil {
		return nil, err
	}
	k := app.K()
	entries := make([]schedule.Entry, 0, len(nft.Entries))
	for _, e := range nft.Entries {
		f := 0
		if app.Proc(e.Proc).Kind == model.Hard {
			f = k
		}
		entries = append(entries, schedule.Entry{Proc: e.Proc, Recoveries: f})
	}
	for {
		if schedule.Schedulable(app, entries, 0, k) {
			s := &schedule.FSchedule{Entries: entries}
			if err := schedule.Validate(app, s); err != nil {
				return nil, fmt.Errorf("baseline: internal error: %w", err)
			}
			return s, nil
		}
		idx := lowestUtilitySoft(app, entries)
		if idx < 0 {
			// Even the hard-only schedule fails; surface which constraint.
			var se *schedule.UnschedulableError
			if errors.As(schedule.CheckSchedulable(app, entries, 0, k), &se) {
				return nil, &core.UnschedulableError{
					Process: se.Proc, Deadline: se.Bound, WorstCase: se.Completion,
				}
			}
			return nil, core.ErrUnschedulable
		}
		entries = append(entries[:idx], entries[idx+1:]...)
	}
}

// lowestUtilitySoft returns the index of the scheduled soft process with
// the smallest expected utility contribution (stale-degraded, at its
// average-case completion), or -1 when no soft process remains.
func lowestUtilitySoft(app *model.Application, entries []schedule.Entry) int {
	status := make([]utility.StaleStatus, app.N())
	for i := range status {
		status[i] = utility.Dropped
	}
	for _, e := range entries {
		status[e.Proc] = utility.Executed
	}
	alpha := app.StaleCoefficients(nil, status)
	c := schedule.ExpectedCompletions(app, entries, 0)
	best := -1
	var bestU float64
	for i, e := range entries {
		if app.Proc(e.Proc).Kind != model.Soft {
			continue
		}
		u := alpha[e.Proc] * app.UtilityOf(e.Proc).Value(c.Finish[i])
		if best < 0 || u < bestU {
			best, bestU = i, u
		}
	}
	return best
}
