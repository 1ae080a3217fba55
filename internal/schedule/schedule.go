package schedule

import (
	"fmt"
	"strings"

	"ftsched/internal/model"
	"ftsched/internal/utility"
)

// Time re-exports the model time base for convenience.
type Time = model.Time

// Entry is one scheduled process together with its recovery budget.
type Entry struct {
	// Proc is the scheduled process.
	Proc model.ProcessID
	// Recoveries is f_i, the number of re-executions covered by the
	// schedule's recovery slack for this process. Between 0 and k.
	Recoveries int
}

// FSchedule is a fault-tolerant static schedule: an execution order plus
// recovery budgets. Processes of the application that do not appear in
// Entries are dropped.
type FSchedule struct {
	// Entries is the execution order on the computation node.
	Entries []Entry
}

// Clone returns a deep copy of the schedule.
func (s *FSchedule) Clone() *FSchedule {
	cp := &FSchedule{Entries: make([]Entry, len(s.Entries))}
	copy(cp.Entries, s.Entries)
	return cp
}

// IndexOf returns the position of the process in the schedule, or -1 if the
// process is dropped.
func (s *FSchedule) IndexOf(p model.ProcessID) int {
	for i, e := range s.Entries {
		if e.Proc == p {
			return i
		}
	}
	return -1
}

// Contains reports whether the process is scheduled (not dropped).
func (s *FSchedule) Contains(p model.ProcessID) bool { return s.IndexOf(p) >= 0 }

// Dropped returns the processes of the application that the schedule drops,
// in ID order.
func (s *FSchedule) Dropped(app *model.Application) []model.ProcessID {
	in := make([]bool, app.N())
	for _, e := range s.Entries {
		in[e.Proc] = true
	}
	var out []model.ProcessID
	for id := 0; id < app.N(); id++ {
		if !in[id] {
			out = append(out, model.ProcessID(id))
		}
	}
	return out
}

// Order returns the bare process order of the schedule.
func (s *FSchedule) Order() []model.ProcessID {
	out := make([]model.ProcessID, len(s.Entries))
	for i, e := range s.Entries {
		out[i] = e.Proc
	}
	return out
}

// String renders the schedule like "P1(f=2) P2 P3(f=1)".
func (s *FSchedule) String() string {
	var sb strings.Builder
	for i, e := range s.Entries {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "#%d", e.Proc)
		if e.Recoveries > 0 {
			fmt.Fprintf(&sb, "(f=%d)", e.Recoveries)
		}
	}
	return sb.String()
}

// Format renders the schedule with process names from the application.
func (s *FSchedule) Format(app *model.Application) string {
	var sb strings.Builder
	for i, e := range s.Entries {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(app.Proc(e.Proc).Name)
		if e.Recoveries > 0 {
			fmt.Fprintf(&sb, "(f=%d)", e.Recoveries)
		}
	}
	if d := s.Dropped(app); len(d) > 0 {
		sb.WriteString(" | dropped:")
		for _, id := range d {
			sb.WriteByte(' ')
			sb.WriteString(app.Proc(id).Name)
		}
	}
	return sb.String()
}

// Validate checks the structural invariants of the schedule against the
// application:
//
//   - every entry's process exists and appears at most once
//   - every hard process is scheduled, with Recoveries == k
//   - soft recoveries are within [0, k]
//   - the order respects precedence among scheduled processes (a dropped
//     predecessor is allowed: the successor consumes a stale value)
func Validate(app *model.Application, s *FSchedule) error {
	pos := make(map[model.ProcessID]int, len(s.Entries))
	for i, e := range s.Entries {
		if e.Proc < 0 || int(e.Proc) >= app.N() {
			return fmt.Errorf("schedule: entry %d: process id %d out of range", i, e.Proc)
		}
		if j, dup := pos[e.Proc]; dup {
			return fmt.Errorf("schedule: process %s scheduled twice (entries %d and %d)",
				app.Proc(e.Proc).Name, j, i)
		}
		pos[e.Proc] = i
		if e.Recoveries < 0 || e.Recoveries > app.K() {
			return fmt.Errorf("schedule: %s: recoveries %d outside [0,%d]",
				app.Proc(e.Proc).Name, e.Recoveries, app.K())
		}
	}
	for _, h := range app.HardIDs() {
		i, ok := pos[h]
		if !ok {
			return fmt.Errorf("schedule: hard process %s is dropped", app.Proc(h).Name)
		}
		if s.Entries[i].Recoveries != app.K() {
			return fmt.Errorf("schedule: hard process %s has %d recoveries, need k=%d",
				app.Proc(h).Name, s.Entries[i].Recoveries, app.K())
		}
	}
	for _, e := range s.Entries {
		for _, p := range app.Preds(e.Proc) {
			if j, ok := pos[p]; ok && j > pos[e.Proc] {
				return fmt.Errorf("schedule: %s scheduled before its predecessor %s",
					app.Proc(e.Proc).Name, app.Proc(p).Name)
			}
		}
	}
	return nil
}

// Completions holds the timing analysis of an f-schedule.
type Completions struct {
	// Start[i] is the no-fault start time of entry i under the chosen
	// execution-time assumption (WCET for worst case, AET for expected,
	// BCET for best case), honouring releases.
	Start []Time
	// Finish[i] is the corresponding no-fault completion time.
	Finish []Time
	// WorstCase[i] is the completion of entry i in the worst-case fault
	// scenario: no-fault WCET finish plus the shared-slack recovery cost
	// of the worst allocation of k faults over entries 0..i. Only
	// populated by WorstCaseCompletions.
	WorstCase []Time
}

// sequential simulates the no-fault timeline of a list schedule with the
// execution times dur selects; see timeline for the platform rules.
func sequential(app *model.Application, entries []Entry, start Time, dur func(*model.Process) Time) ([]Time, []Time) {
	starts := make([]Time, len(entries))
	finishes := make([]Time, len(entries))
	var t timeline
	t.reset(app, start)
	for i, e := range entries {
		p := app.ProcRef(e.Proc)
		starts[i], finishes[i] = t.place(app, e.Proc, p.Release, dur(p))
	}
	return starts, finishes
}

// WorstCaseCompletions computes the WCET-based no-fault timing and the
// shared-slack worst-case completion of every entry, for a schedule whose
// first entry starts no earlier than start and with at most k faults still
// to come: one walk of a Prefix. Entries with Recoveries == 0 do not
// consume slack.
//
// When releases introduce idle gaps, a recovery can partly overlap a gap;
// this analysis charges the full recovery cost anyway, which is safe
// (pessimistic) for deadline guarantees.
//
// On a mapped platform the anchor for entry i is the no-fault makespan of
// the prefix 0..i (the running maximum of finishes), not entry i's own
// finish: a recovery consumed by an earlier entry can execute on another
// core and push work there past entry i's finish. Every timeline point of
// the prefix under at most k faults is bounded by that makespan plus the
// total consumed recovery cost (each recovery adds at most µ plus its
// re-execution time, scaled on its recovery core, to one core's timeline,
// and all waiting serialises behind it). On a single core finishes are
// monotone, so the running maximum IS finishes[i] and the formula reduces
// exactly to the paper's shared-slack bound.
func WorstCaseCompletions(app *model.Application, entries []Entry, start Time, k int) Completions {
	c := Completions{
		Start:     make([]Time, len(entries)),
		Finish:    make([]Time, len(entries)),
		WorstCase: make([]Time, len(entries)),
	}
	var p Prefix
	p.Reset(app, start, k)
	for i, e := range entries {
		c.Start[i], c.Finish[i], c.WorstCase[i] = p.Extend(e)
	}
	return c
}

// ExpectedCompletions computes AET-based no-fault start/finish times.
func ExpectedCompletions(app *model.Application, entries []Entry, start Time) Completions {
	s, f := sequential(app, entries, start, func(p *model.Process) Time { return p.AET })
	return Completions{Start: s, Finish: f}
}

// BestCaseCompletions computes BCET-based no-fault start/finish times.
func BestCaseCompletions(app *model.Application, entries []Entry, start Time) Completions {
	s, f := sequential(app, entries, start, func(p *model.Process) Time { return p.BCET })
	return Completions{Start: s, Finish: f}
}

// UnschedulableError reports which constraint a schedule violates in the
// worst-case fault scenario.
type UnschedulableError struct {
	// Proc is the hard process whose deadline is missed, or
	// model.NoProcess when the period is exceeded.
	Proc model.ProcessID
	// Completion is the offending worst-case completion time.
	Completion Time
	// Bound is the violated deadline (or the period).
	Bound Time
}

// Error implements error.
func (e *UnschedulableError) Error() string {
	if e.Proc == model.NoProcess {
		return fmt.Sprintf("schedule: worst-case makespan %d exceeds period %d", e.Completion, e.Bound)
	}
	return fmt.Sprintf("schedule: process #%d misses deadline %d (worst-case completion %d)",
		e.Proc, e.Bound, e.Completion)
}

// CheckSchedulable verifies that, starting at start with up to k faults
// still to occur, every scheduled hard process meets its deadline and the
// whole schedule completes within the application period, in the worst-case
// fault scenario. It does NOT check that all hard processes are present;
// use Validate for structural checks.
func CheckSchedulable(app *model.Application, entries []Entry, start Time, k int) error {
	var p Prefix
	p.Reset(app, start, k)
	for _, e := range entries {
		p.Extend(e)
	}
	return p.Err()
}

// Schedulable is CheckSchedulable as a predicate.
func Schedulable(app *model.Application, entries []Entry, start Time, k int) bool {
	var p Prefix
	p.Reset(app, start, k)
	return p.Fits(entries)
}

// ExpectedUtility evaluates the total expected utility of an f-schedule in
// the no-fault scenario, the figure of merit the paper reports (§4: the
// no-fault utility must never be compromised, so schedules are optimised
// for the average execution times). The entries run back to back from 0
// with their AETs; each soft one contributes α_i·U_i(t_i), summed in entry
// order, with α from app.StaleCoefficients. Soft processes outside the
// schedule are dropped: they contribute nothing and degrade their
// successors through the stale-value coefficients.
func ExpectedUtility(app *model.Application, s *FSchedule) float64 {
	status := make([]utility.StaleStatus, app.N())
	for i := range status {
		status[i] = utility.Dropped
	}
	for _, e := range s.Entries {
		status[e.Proc] = utility.Executed
	}
	alpha := app.StaleCoefficients(nil, status)
	c := ExpectedCompletions(app, s.Entries, 0)
	var total float64
	for i, e := range s.Entries {
		if app.Proc(e.Proc).Kind == model.Soft {
			total += alpha[e.Proc] * app.UtilityOf(e.Proc).Value(c.Finish[i])
		}
	}
	return total
}
