package runtime

import (
	"math"
	"slices"

	"ftsched/internal/model"
	"ftsched/internal/schedule"
	"ftsched/internal/utility"
)

// fate is how one entry's attempt sequence ended.
type fate uint8

const (
	fateOK        fate = iota // the first attempt completed
	fateRecovered             // completed after at least one fault
	fateBudget                // abandoned: every attempt the budget allowed faulted
	fateShed                  // abandoned: soft victim of a fault beyond k while shedding
)

// kernel is the attempt kernel: the one place that knows how an entry's
// attempts unfold under the platform and the recovery model — the
// paper's re-execution, the restart model of Abdi et al. or the
// checkpoint model of Persya & Nair (PAPERS.md). It is immutable; the
// per-cycle state it advances is a cycleState.
type kernel struct {
	procs    []model.Process   // the process table, by ID
	soft     []model.ProcessID // the soft processes, by ascending ID
	rec      model.RecoveryModel
	overhead []model.Time // per-fault overhead: µ, restart latency or rollback
	// primCore[p] runs p's first attempt and rerunCore[p] its re-runs: the
	// recovery core, or the primary one for a checkpoint rollback, which
	// restores core-local state.
	primCore, rerunCore []int32
	cores               []model.Core
	// rollback: a resume re-runs only the final checkpoint segment, so at
	// most that much of an overrun recurs.
	rollback bool
	// Faults consumed beyond bound are out-of-model and trip policy: k
	// with an envelope, unbounded without one.
	bound  int
	policy DegradePolicy
}

// newKernel caches the process table and the per-process platform and
// recovery parameters of app, with no envelope.
func newKernel(app *model.Application) kernel {
	n := app.N()
	plat := app.Platform()
	k := kernel{
		procs:     make([]model.Process, n),
		soft:      app.SoftIDs(),
		rec:       app.Recovery(),
		overhead:  make([]model.Time, n),
		primCore:  make([]int32, n),
		rerunCore: make([]int32, n),
		cores:     make([]model.Core, plat.NCores()),
		rollback:  app.Recovery().Kind == model.RecoverCheckpoint,
		bound:     math.MaxInt,
	}
	for id := 0; id < n; id++ {
		pid := model.ProcessID(id)
		k.procs[id] = app.Proc(pid)
		k.overhead[id] = app.RecoveryOverhead(pid)
		k.primCore[id] = int32(app.CoreOf(pid))
		k.rerunCore[id] = int32(app.RecoveryCoreOf(pid))
		if k.rollback {
			k.rerunCore[id] = k.primCore[id]
		}
	}
	for c := range k.cores {
		k.cores[c] = plat.Core(model.CoreID(c))
	}
	return k
}

// scale converts a sampled duration to wall-clock time on core c,
// exactly as model.Platform.Scale (identity at speed 1).
func (k *kernel) scale(c int32, dur model.Time) model.Time {
	if s := k.cores[c].Speed; s != 1 && dur > 0 {
		return model.Time(math.Ceil(float64(dur) / s))
	}
	return dur
}

// attempts runs entry e's attempt sequence from time t, the first
// attempt on its primary core ac. Each attempt occupies its core for its
// wall time and consumes a pending fault aimed at the process, detected
// at the attempt's end. A fault within the recovery budget — or any fault
// on a hard process once shedding — pays the per-fault overhead on the
// re-run core and re-runs there once that core is free. excess is the
// sampled duration's overrun beyond WCET, charged again on every attempt.
// It books faults, recoveries, overruns and out-of-model faults on st,
// emits the start, fault and recovery trace events, and returns the time
// the last attempt ended.
func (k *kernel) attempts(st *cycleState, e schedule.Entry, hard bool, ac int32, t, dur, excess model.Time) (model.Time, fate) {
	res := st.res
	sd := k.scale(ac, dur)
	f := fateOK
	for attempt := 0; ; attempt++ {
		if st.events != nil {
			*st.events = append(*st.events, TraceEvent{Kind: TraceStart, At: t, Proc: e.Proc, Attempt: attempt})
		}
		// The first attempt pays the checkpoint overheads; a later one
		// re-runs only what the recovery model loses to a fault.
		var w model.Time
		if attempt == 0 {
			w = k.rec.AttemptTime(sd)
		} else {
			w = k.rec.ResumeTime(sd)
		}
		t += w
		st.busy[ac] += w
		st.ready[ac] = t
		ex := excess
		if attempt > 0 && k.rollback && ex > w {
			ex = max(w, 0)
		}
		res.OverrunTotal += ex
		if st.faultsLeft[e.Proc] == 0 {
			return t, f
		}
		st.faultsLeft[e.Proc]--
		res.FaultsConsumed++
		f = fateRecovered
		if st.events != nil {
			*st.events = append(*st.events, TraceEvent{Kind: TraceFault, At: t, Proc: e.Proc, Attempt: attempt})
		}
		if res.FaultsConsumed > k.bound {
			res.Violations = append(res.Violations, ViolationEvent{Kind: ExtraFault, Proc: e.Proc, At: t, Magnitude: model.Time(res.FaultsConsumed - k.bound)})
			st.trip(k.policy)
			if st.shedding && !hard {
				// Recovery time spent on a soft victim would eat into the
				// slack the emergency suffix is about to need.
				return t, fateShed
			}
		}
		// In shed mode hard processes re-execute without budget: the
		// envelope's promise is to finish them if time allows.
		if attempt >= e.Recoveries && !(st.shedding && hard) {
			return t, fateBudget
		}
		if st.events != nil {
			*st.events = append(*st.events, TraceEvent{Kind: TraceRecovery, At: t, Proc: e.Proc, Attempt: attempt})
		}
		oh := k.overhead[e.Proc]
		t += oh
		res.Recoveries++
		rc := k.rerunCore[e.Proc]
		st.busy[rc] += oh
		if st.ready[rc] > t {
			t = st.ready[rc]
		}
		if rc != ac {
			ac, sd = rc, k.scale(rc, dur)
		}
	}
}

// Kernel runs schedule entries one at a time through the dispatcher's
// attempt kernel on the canonical single clock, for callers that choose
// every next entry themselves — the online rescheduler, which re-runs
// synthesis after each one. It books completions, faults and recoveries
// on the Result it was created with and never records envelope events.
// The application must be on the default platform (Platform.IsDefault).
type Kernel struct {
	app *model.Application
	k   kernel
	st  cycleState
}

// NewKernel starts one cycle of sc on app, booking onto res, whose
// Outcomes and CompletionTimes it sizes and clears.
func NewKernel(app *model.Application, res *Result, sc Scenario) *Kernel {
	n := app.N()
	res.Outcomes = resize(res.Outcomes, n)
	res.CompletionTimes = resize(res.CompletionTimes, n)
	return &Kernel{app: app, k: newKernel(app), st: cycleState{
		res:        res,
		durations:  sc.Durations,
		faultsLeft: append([]int(nil), sc.FaultsAt...),
		status:     make([]utility.StaleStatus, n),
		ready:      make([]model.Time, 1),
		busy:       make([]model.Time, 1),
	}}
}

// Run executes entry e from the later of the clock and the process
// release, books its outcome, and returns the time it ended and whether
// it completed.
func (k *Kernel) Run(e schedule.Entry) (model.Time, bool) {
	p := &k.k.procs[e.Proc]
	start := max(k.st.ready[0], p.Release)
	end, f := k.k.attempts(&k.st, e, p.Kind == model.Hard, 0, start, k.st.durations[e.Proc], 0)
	book(k.st.res, e.Proc, p, end, f)
	return end, f <= fateRecovered
}

// Finish closes the cycle: hard processes that never completed join
// HardViolations, and Utility is computed from the recorded outcomes.
func (k *Kernel) Finish() {
	res := k.st.res
	appendUnranHard(res, k.app.HardIDs())
	res.Utility = k.k.cycleUtility(k.app, &k.st, nil)
}

// appendUnranHard records every hard process that did not complete and
// is not yet listed — those that never ran — on res.HardViolations.
func appendUnranHard(res *Result, hard []model.ProcessID) {
	for _, h := range hard {
		if res.Outcomes[h] != Completed && !slices.Contains(res.HardViolations, h) {
			res.HardViolations = append(res.HardViolations, h)
		}
	}
}

// book records how entry proc ended at time end: its completion time, or
// its abandonment, with a hard violation for a hard process that missed
// its deadline or was abandoned, and the running makespan (on a mapped
// platform a later entry can end earlier on another core).
func book(res *Result, proc model.ProcessID, p *model.Process, end model.Time, f fate) {
	if end > res.Makespan {
		res.Makespan = end
	}
	if f > fateRecovered {
		res.Outcomes[proc] = AbandonedByFault
		if p.Kind == model.Hard {
			res.HardViolations = append(res.HardViolations, proc)
		}
		return
	}
	res.Outcomes[proc] = Completed
	res.CompletionTimes[proc] = end
	if p.Kind == model.Hard && end > p.Deadline {
		res.HardViolations = append(res.HardViolations, proc)
	}
}
