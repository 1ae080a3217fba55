package appio

import (
	"fmt"
	"io"
	"sort"

	"ftsched/internal/model"
	"ftsched/internal/runtime"
)

// WriteGantt renders an execution trace (from runtime.Dispatcher.RunTrace)
// as a time-scaled ASCII Gantt chart: one row per process that appears in
// the trace, in first-start order.
//
//	#   executing
//	x   executing, attempt ends in a detected fault
//	.   recovery overhead µ
//	!   abandonment (soft process dropped at run time)
//	^   (footer row) schedule switch taken at this time
//
// width columns span [0, span]; pass span <= 0 to use the application
// period.
func WriteGantt(w io.Writer, app *model.Application, events []runtime.TraceEvent, span model.Time, width int) error {
	if width < 20 {
		width = 72
	}
	if span <= 0 {
		span = app.Period()
	}
	if span <= 0 {
		return fmt.Errorf("appio: non-positive time span")
	}
	col := func(t model.Time) int {
		c := int(int64(t) * int64(width-1) / int64(span))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}

	// Collect per-process segments.
	type segment struct {
		from, to model.Time
		glyph    byte
	}
	segs := map[model.ProcessID][]segment{}
	order := []model.ProcessID{}
	seen := map[model.ProcessID]bool{}
	pendingStart := map[model.ProcessID]model.Time{}
	var switches []model.Time

	for _, ev := range events {
		switch ev.Kind {
		case runtime.TraceStart:
			pendingStart[ev.Proc] = ev.At
			if !seen[ev.Proc] {
				seen[ev.Proc] = true
				order = append(order, ev.Proc)
			}
		case runtime.TraceFault:
			segs[ev.Proc] = append(segs[ev.Proc], segment{pendingStart[ev.Proc], ev.At, 'x'})
		case runtime.TraceRecovery:
			// The recovery glyph spans the per-fault overhead of the
			// application's recovery model (µ, restart latency, or
			// rollback cost); the re-run starts right after it.
			end := ev.At + app.RecoveryOverhead(ev.Proc)
			segs[ev.Proc] = append(segs[ev.Proc], segment{ev.At, end, '.'})
		case runtime.TraceComplete:
			segs[ev.Proc] = append(segs[ev.Proc], segment{pendingStart[ev.Proc], ev.At, '#'})
		case runtime.TraceAbandon:
			segs[ev.Proc] = append(segs[ev.Proc], segment{ev.At, ev.At, '!'})
		case runtime.TraceSwitch:
			switches = append(switches, ev.At)
		}
	}

	// Longest name for alignment.
	nameW := 4
	for _, id := range order {
		if n := len(app.Proc(id).Name); n > nameW {
			nameW = n
		}
	}

	fmt.Fprintf(w, "%*s  0%*s%d\n", nameW, "", width-2-len(fmt.Sprint(span)), "", span)
	for _, id := range order {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		ss := segs[id]
		sort.SliceStable(ss, func(a, b int) bool { return ss[a].from < ss[b].from })
		for _, s := range ss {
			a, b := col(s.from), col(s.to)
			if s.glyph == '!' {
				row[a] = '!'
				continue
			}
			for c := a; c <= b; c++ {
				row[c] = s.glyph
			}
		}
		p := app.Proc(id)
		marker := ' '
		if p.Kind == model.Hard {
			marker = '*'
		}
		if _, err := fmt.Fprintf(w, "%*s%c|%s|\n", nameW, p.Name, marker, row); err != nil {
			return err
		}
	}
	if len(switches) > 0 {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for _, t := range switches {
			row[col(t)] = '^'
		}
		if _, err := fmt.Fprintf(w, "%*s |%s| schedule switches\n", nameW, "", row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%*s  (* = hard process; # exec, x faulted attempt, . recovery, ! abandoned)\n", nameW, "")
	return err
}
