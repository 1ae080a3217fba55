package runtime

import (
	"math"

	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/utility"
)

// ReferenceRun executes one scenario through referenceRun, the frozen
// monolithic interpreter the split dispatcher is checked against. env is
// the envelope the Dispatcher was built with (nil for none).
func (d *Dispatcher) ReferenceRun(env *EnvelopeConfig, sc Scenario) (Result, []TraceEvent, error) {
	var res Result
	if err := d.checkScenario(sc); err != nil {
		return res, nil, err
	}
	var events []TraceEvent
	err := referenceRun(d.tree, env, &res, sc, &events)
	return res, events, err
}

// referenceRun is the single-loop interpreter as it stood before the
// attempt kernel, the explicit cycle state and the once-only platform
// selection were factored out, with WCETOverrun stamped at the end of the
// first attempt as executed. It is kept verbatim in behaviour as the
// oracle of the differential test: every platform and recovery-model
// decision is re-tested inline, per entry and per attempt, and every
// cache is derived from the application on each call. Observability
// sinks are left out (their counters have their own tests), and guard
// switches resolve through the interpretive core.Tree.Next rather than
// the compiled segment table.
func referenceRun(tree *core.Tree, env *EnvelopeConfig, res *Result, sc Scenario, events *[]TraceEvent) error {
	app := tree.App
	n := app.N()
	plat := app.Platform()
	ncores := plat.NCores()
	multi := !plat.IsDefault()
	rec := app.Recovery()
	checkpointing := rec.Kind == model.RecoverCheckpoint
	envelope := env != nil
	var envPolicy DegradePolicy
	var envClamp bool
	var emergency *core.EmergencyPlan
	if envelope {
		envPolicy, envClamp = env.Policy, env.Clamp
		if envPolicy == PolicyShedSoft {
			emergency = core.BuildEmergencyPlan(tree)
		}
	}
	k := app.K()
	scaleOn := func(c int32, t model.Time) model.Time {
		s := plat.Core(model.CoreID(c)).Speed
		if s == 1 || t <= 0 {
			return t
		}
		return model.Time(math.Ceil(float64(t) / s))
	}

	res.Utility = 0
	res.Outcomes = resize(res.Outcomes, n)
	res.CompletionTimes = resize(res.CompletionTimes, n)
	res.HardViolations = res.HardViolations[:0]
	res.Violations = res.Violations[:0]
	res.Makespan = 0
	res.Switches = 0
	res.FaultsConsumed = 0
	res.Recoveries = 0
	res.Fallbacks = 0
	res.Degraded = false
	res.ShedSlack = 0
	res.OverrunTotal = 0

	faultsLeft := append([]int(nil), sc.FaultsAt...)
	ready := make([]model.Time, ncores)
	busy := make([]model.Time, ncores)

	tripped, shedding, onEmergency := false, false, false

	node := core.NodeID(0)
	entries := tree.Nodes[node].Schedule.Entries
	now := model.Time(0)
	for pos := 0; pos < len(entries); pos++ {
		e := entries[pos]
		p := app.Proc(e.Proc)
		var start model.Time
		var pc int32
		if multi {
			pc = int32(app.CoreOf(e.Proc))
			start = ready[pc]
			if p.Release > start {
				start = p.Release
			}
			for _, q := range app.Preds(e.Proc) {
				if res.Outcomes[q] == Completed && res.CompletionTimes[q] > start {
					start = res.CompletionTimes[q]
				}
			}
		} else {
			start = now
			if p.Release > start {
				start = p.Release
			}
		}

		dur := sc.Durations[e.Proc]
		var excess model.Time
		if envelope {
			if dur < 0 {
				res.Violations = append(res.Violations, ViolationEvent{Kind: TimeRegression, Proc: e.Proc, At: start, Magnitude: -dur})
				tripped = true
				shedding = shedding || envPolicy == PolicyShedSoft
				if envClamp {
					dur = 0
				}
			} else if dur > p.WCET {
				over := dur - p.WCET
				if envClamp {
					dur = p.WCET
				} else {
					excess = over
				}
				first := dur
				if multi {
					first = scaleOn(pc, first)
				}
				if checkpointing {
					first = rec.AttemptTime(first)
				}
				res.Violations = append(res.Violations, ViolationEvent{Kind: WCETOverrun, Proc: e.Proc, At: start + first, Magnitude: over})
				tripped = true
				shedding = shedding || envPolicy == PolicyShedSoft
			}
		}

		outcome := core.CompletedOK
		faulted := false
		completed := false
		budgetOut := false
		t := start
		ac := pc
		for attempt := 0; ; attempt++ {
			if events != nil {
				*events = append(*events, TraceEvent{Kind: TraceStart, At: t, Proc: e.Proc, Attempt: attempt})
			}
			var w model.Time
			if multi {
				w = scaleOn(ac, dur)
			} else {
				w = dur
			}
			if checkpointing {
				if attempt == 0 {
					w = rec.AttemptTime(w)
				} else {
					w = rec.ResumeTime(w)
				}
			}
			t += w
			if multi {
				busy[ac] += w
				ready[ac] = t
			} else {
				busy[0] += w
			}
			ex := excess
			if attempt > 0 && checkpointing && ex > w {
				ex = max(w, 0)
			}
			res.OverrunTotal += ex
			if faultsLeft[e.Proc] > 0 {
				faultsLeft[e.Proc]--
				res.FaultsConsumed++
				faulted = true
				if events != nil {
					*events = append(*events, TraceEvent{Kind: TraceFault, At: t, Proc: e.Proc, Attempt: attempt})
				}
				if envelope && res.FaultsConsumed > k {
					res.Violations = append(res.Violations, ViolationEvent{Kind: ExtraFault, Proc: e.Proc, At: t, Magnitude: model.Time(res.FaultsConsumed - k)})
					tripped = true
					if envPolicy == PolicyShedSoft {
						shedding = true
						if p.Kind == model.Soft {
							break
						}
					}
				}
				if attempt < e.Recoveries || (shedding && p.Kind == model.Hard) {
					if events != nil {
						*events = append(*events, TraceEvent{Kind: TraceRecovery, At: t, Proc: e.Proc, Attempt: attempt})
					}
					oh := app.RecoveryOverhead(e.Proc)
					t += oh
					res.Recoveries++
					if multi {
						if checkpointing {
							busy[ac] += oh
						} else {
							rc := int32(app.RecoveryCoreOf(e.Proc))
							busy[rc] += oh
							if ready[rc] > t {
								t = ready[rc]
							}
							ac = rc
						}
					} else {
						busy[0] += oh
					}
					continue
				}
				budgetOut = true
				break
			}
			completed = true
			break
		}
		now = t

		if completed {
			res.Outcomes[e.Proc] = Completed
			res.CompletionTimes[e.Proc] = now
			if events != nil {
				*events = append(*events, TraceEvent{Kind: TraceComplete, At: now, Proc: e.Proc})
			}
			if faulted {
				outcome = core.CompletedRecovered
			}
			if p.Kind == model.Hard && now > p.Deadline {
				res.HardViolations = append(res.HardViolations, e.Proc)
			}
		} else {
			res.Outcomes[e.Proc] = AbandonedByFault
			outcome = core.DroppedByFault
			if budgetOut {
				res.Violations = append(res.Violations, ViolationEvent{Kind: BudgetExhausted, Proc: e.Proc, At: now, Magnitude: model.Time(e.Recoveries + 1)})
			}
			if events != nil {
				*events = append(*events, TraceEvent{Kind: TraceAbandon, At: now, Proc: e.Proc})
			}
			if p.Kind == model.Hard {
				res.HardViolations = append(res.HardViolations, e.Proc)
			}
		}
		if now > res.Makespan {
			res.Makespan = now
		}

		if shedding && !onEmergency {
			for i := pos + 1; i < len(entries); i++ {
				sp := app.Proc(entries[i].Proc)
				if sp.Kind == model.Hard {
					break
				}
				res.ShedSlack += rec.AttemptTime(sp.WCET)
			}
			entries = emergency.Suffix(node, pos+1)
			onEmergency = true
			res.Degraded = true
			pos = -1
			continue
		}
		if tripped && envPolicy == PolicyStrict {
			break
		}
		if onEmergency {
			continue
		}
		if multi {
			synced := true
			for c := 0; c < ncores; c++ {
				if ready[c] > now {
					synced = false
					break
				}
			}
			if !synced {
				continue
			}
		}

		next := tree.Next(node, pos, now, outcome)
		if next != node {
			if next < 0 || int(next) >= len(tree.Nodes) || tree.Nodes[next].Schedule == nil {
				res.Fallbacks++
				next = 0
			}
		}
		if next != node {
			node = next
			entries = tree.Nodes[node].Schedule.Entries
			res.Switches++
			if events != nil {
				*events = append(*events, TraceEvent{Kind: TraceSwitch, At: now, Proc: e.Proc, Node: int(node)})
			}
		}
	}
	res.FinalNode = int(node)

	for _, h := range app.HardIDs() {
		if res.Outcomes[h] != Completed {
			already := false
			for _, v := range res.HardViolations {
				if v == h {
					already = true
					break
				}
			}
			if !already {
				res.HardViolations = append(res.HardViolations, h)
			}
		}
	}

	res.Utility = referenceUtility(app, res.Outcomes, res.CompletionTimes)

	res.CoreBusy = resize(res.CoreBusy, ncores)
	res.CoreEnergy = resize(res.CoreEnergy, ncores)
	var eact, eidl float64
	for c := 0; c < ncores; c++ {
		cc := plat.Core(model.CoreID(c))
		b := busy[c]
		idle := app.Period() - b
		if idle < 0 {
			idle = 0
		}
		ea := float64(b) * cc.PowerActive
		ei := float64(idle) * cc.PowerIdle
		res.CoreBusy[c] = b
		res.CoreEnergy[c] = ea + ei
		eact += ea
		eidl += ei
	}
	res.EnergyActive = eact
	res.EnergyIdle = eidl
	res.Energy = eact + eidl

	if tripped && envPolicy == PolicyStrict {
		evs := make([]ViolationEvent, len(res.Violations))
		copy(evs, res.Violations)
		return &EnvelopeError{Policy: PolicyStrict, Events: evs}
	}
	return nil
}

// referenceUtility applies the stale-value model to realised outcomes:
// Σ α_i · U_i(t_i^c) over the soft processes that completed, with α from
// app.StaleCoefficients.
func referenceUtility(app *model.Application, outcomes []ProcessOutcome, done []model.Time) float64 {
	status := make([]utility.StaleStatus, app.N())
	for id := range status {
		if outcomes[id] == Completed {
			status[id] = utility.Executed
		} else {
			status[id] = utility.Dropped
		}
	}
	alpha := app.StaleCoefficients(nil, status)
	var total float64
	for id := 0; id < app.N(); id++ {
		pid := model.ProcessID(id)
		if app.Proc(pid).Kind != model.Soft || outcomes[id] != Completed {
			continue
		}
		total += alpha[id] * app.UtilityOf(pid).Value(done[id])
	}
	return total
}
