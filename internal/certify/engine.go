package certify

import (
	"context"
	"fmt"
	"math"

	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/par"
	"ftsched/internal/runtime"
)

// Default engine limits.
const (
	// defaultBudget bounds the number of scenarios exhaustive mode may
	// enumerate before the engine degrades, explicitly, to frontier mode.
	defaultBudget = int64(1) << 21
	// defaultMaxBoundaries caps the behaviour change points bisection
	// collects per process.
	defaultMaxBoundaries = 4
)

// Config parameterises a certification run. The zero value asks for the
// full fault bound, one worker per CPU, and the default scenario budget.
type Config struct {
	// MaxFaults is the largest fault-pattern size explored; 0 means the
	// application bound k. Values above k are rejected.
	MaxFaults int `json:"max_faults,omitempty"`
	// Workers bounds the goroutines exploring fault patterns; 0 means
	// GOMAXPROCS. The report and any counterexample are identical for
	// every worker count.
	Workers int `json:"workers,omitempty"`
	// Budget caps the scenarios exhaustive mode may plan; above it the
	// engine switches to frontier mode (never silently truncates). 0 means
	// the default (~2M).
	Budget int64 `json:"budget,omitempty"`
	// MaxBoundaries caps the bisection change points collected per
	// process; 0 means the default (4), negative disables bisection.
	MaxBoundaries int `json:"max_boundaries,omitempty"`
	// Sink receives certification counters and histograms, and is routed
	// into the dispatcher the scenarios execute on. Every dispatch counter
	// reads what running each scenario from the root would emit; the
	// per-entry histograms (guard depth, hard slack, switch node) count
	// only the entries that executed after a scenario's resume point.
	Sink obs.Sink `json:"-"`
}

// Report summarises what a certification run explored, whether it ended in
// a certificate or a counterexample.
type Report struct {
	// Mode is "exhaustive" (every pattern x corner combination ran) or
	// "frontier" (extreme profiles plus single-process deviations).
	Mode string `json:"mode"`
	// MaxFaults is the resolved fault bound that was certified.
	MaxFaults int `json:"max_faults"`
	// Patterns counts canonical fault patterns explored; PatternsPruned
	// counts raw patterns collapsed into them by canonicalisation.
	Patterns       int `json:"patterns"`
	PatternsPruned int `json:"patterns_pruned"`
	// Scenarios counts scenarios explored (each resumed from a recorded
	// prefix where it matches), excluding the bisection probes, reported
	// separately as BisectionRuns.
	Scenarios     int64 `json:"scenarios"`
	BisectionRuns int64 `json:"bisection_runs"`
	// WorstSlack is the minimum hard-deadline slack observed over every
	// explored scenario, and WorstSlackProc the process realising it;
	// WorstSlackProc is model.NoProcess when no hard process completed.
	// Slack at or below zero comes with a counterexample.
	WorstSlack     model.Time      `json:"worst_slack"`
	WorstSlackProc model.ProcessID `json:"worst_slack_proc"`
	// MinUtility is the lowest cycle utility observed and
	// MinUtilityFaultsAt the fault placement (per-process counts) that
	// produced it — the utility-minimising adversary within the explored
	// set.
	MinUtility         float64 `json:"min_utility"`
	MinUtilityFaultsAt []int   `json:"min_utility_faults_at,omitempty"`
}

// patternOutcome is one worker's summary of one fault pattern, folded
// sequentially (in pattern order) after the fan-out returns so the result
// is independent of worker count.
type patternOutcome struct {
	scenarios  int64
	haveSlack  bool
	worstSlack model.Time
	worstProc  model.ProcessID
	minUtility float64
	ce         *Counterexample // lowest-scenario-index violation, if any
}

// Certify certifies tree against up to cfg.MaxFaults transient faults by
// exhaustive adversarial execution through the compiled dispatcher. It
// returns a *CounterexampleError if any explored scenario misses a hard
// deadline — the Report is still valid for what was explored — and a
// *runtime.MalformedTreeError if the tree does not compile.
func Certify(tree *core.Tree, cfg Config) (Report, error) {
	return CertifyContext(context.Background(), tree, cfg)
}

// CertifyContext is Certify with cancellation: the context is checked
// before every scenario and the context error is returned on cancellation.
func CertifyContext(ctx context.Context, tree *core.Tree, cfg Config) (Report, error) {
	return certify(ctx, tree, cfg, func(d *runtime.Dispatcher) runner { return d.NewReplayer() })
}

// runner executes the explorer's scenarios: a runtime.Replayer, which
// resumes the cycle it last recorded. The tests substitute a run from the
// root as their oracle.
type runner interface {
	Run(sc runtime.Scenario, record bool) (*runtime.Result, error)
}

// certify is CertifyContext with the explorers' runners built by
// newRunner.
func certify(ctx context.Context, tree *core.Tree, cfg Config, newRunner func(*runtime.Dispatcher) runner) (Report, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return Report{}, err
	}
	d, err := runtime.NewDispatcher(tree, runtime.WithSink(cfg.Sink))
	if err != nil {
		return Report{}, err
	}
	app := tree.App
	n := app.N()

	maxFaults := cfg.MaxFaults
	if maxFaults == 0 {
		maxFaults = app.K()
	}
	if maxFaults > app.K() {
		return Report{}, fmt.Errorf("certify: MaxFaults %d outside [0, k=%d]", cfg.MaxFaults, app.K())
	}
	budget := cfg.Budget
	maxBoundaries := cfg.MaxBoundaries
	var sink obs.Sink
	if obs.Live(cfg.Sink) {
		sink = cfg.Sink
	}

	b := boundsOf(app)
	corners, bisRuns, err := cornerSets(ctx, d, app, b, maxBoundaries)
	if err != nil {
		return Report{}, err
	}
	if sink != nil {
		sink.Add(obs.CertifyBisectionRuns, bisRuns)
	}

	patterns, pruned := enumeratePatterns(n, rootCandidates(tree), maxFaults, maxAttempts(tree))

	// Mode decision: exhaustive iff patterns x (product of corner counts)
	// fits the budget, computed overflow-safely.
	combos := int64(len(patterns))
	exhaustive := combos > 0
	for _, cs := range corners {
		if combos > budget {
			exhaustive = false
			break
		}
		combos *= int64(len(cs))
	}
	if combos > budget {
		exhaustive = false
	}
	mode := "exhaustive"
	if !exhaustive {
		mode = "frontier"
	}

	outcomes := make([]patternOutcome, len(patterns))
	err = par.For(ctx, len(patterns), cfg.Workers, func(int) func(int) error {
		bg := [2]runner{newRunner(d)}
		if !exhaustive {
			bg[1] = newRunner(d)
		}
		ex := newExplorer(bg, b, app.HardIDs(), corners, exhaustive)
		return func(pi int) error {
			return ex.explore(ctx, &patterns[pi], &outcomes[pi])
		}
	})
	if err != nil {
		return Report{}, err
	}

	// Sequential fold in pattern order: worker count cannot change the
	// report or the counterexample choice.
	rep := Report{
		Mode:           mode,
		MaxFaults:      maxFaults,
		Patterns:       len(patterns),
		PatternsPruned: pruned,
		BisectionRuns:  bisRuns,
		WorstSlackProc: model.NoProcess,
		MinUtility:     math.Inf(1),
	}
	var ce *Counterexample
	cePattern, minPattern := -1, -1
	for pi := range outcomes {
		o := &outcomes[pi]
		rep.Scenarios += o.scenarios
		if o.haveSlack {
			if rep.WorstSlackProc == model.NoProcess || o.worstSlack < rep.WorstSlack {
				rep.WorstSlack = o.worstSlack
				rep.WorstSlackProc = o.worstProc
			}
			if sink != nil {
				sink.Observe(obs.CertifyWorstSlack, int64(o.worstSlack))
			}
		}
		if o.scenarios > 0 && o.minUtility < rep.MinUtility {
			rep.MinUtility = o.minUtility
			minPattern = pi
		}
		if ce == nil && o.ce != nil {
			ce = o.ce
			cePattern = pi
		}
	}
	if sink != nil {
		sink.Add(obs.CertifyPatterns, int64(len(patterns)))
		sink.Add(obs.CertifyPatternsPruned, int64(pruned))
		sink.Add(obs.CertifyScenarios, rep.Scenarios)
	}
	if math.IsInf(rep.MinUtility, 1) {
		rep.MinUtility = 0
	}
	if minPattern >= 0 {
		rep.MinUtilityFaultsAt = make([]int, n)
		patterns[minPattern].faultsAt(rep.MinUtilityFaultsAt)
	}

	if ce != nil {
		ce.PatternIndex = cePattern
		// One trace re-run recovers the tree path the dispatcher took.
		_, events, err := d.RunTrace(ce.Scenario)
		if err != nil {
			return rep, err
		}
		ce.Path = []int{0}
		for _, ev := range events {
			if ev.Kind == runtime.TraceSwitch {
				ce.Path = append(ce.Path, ev.Node)
			}
		}
		return rep, &CounterexampleError{Counterexample: *ce}
	}
	return rep, nil
}

// bounds caches each process's BCET, WCET and deadline by process ID:
// Application.Proc copies a whole Process per call.
type bounds struct {
	bcet, wcet, deadline []model.Time
}

func boundsOf(app *model.Application) bounds {
	n := app.N()
	b := bounds{make([]model.Time, n), make([]model.Time, n), make([]model.Time, n)}
	for id := 0; id < n; id++ {
		p := app.Proc(model.ProcessID(id))
		b.bcet[id], b.wcet[id], b.deadline[id] = p.BCET, p.WCET, p.Deadline
	}
	return b
}

// explorer is one worker's reusable scenario state. bg[0] and bg[1]
// resume the all-BCET and all-WCET backgrounds of frontier mode; they
// stay recorded across the worker's patterns, so a pattern's background
// resumes the previous one's at the first process whose fault count
// changed. Exhaustive mode runs on bg[0] alone.
type explorer struct {
	bg         [2]runner
	b          bounds
	hardIDs    []model.ProcessID
	corners    [][]model.Time
	exhaustive bool
	sc         runtime.Scenario
	idx        []int
}

func newExplorer(bg [2]runner, b bounds, hardIDs []model.ProcessID, corners [][]model.Time, exhaustive bool) *explorer {
	n := len(corners)
	return &explorer{
		bg:         bg,
		b:          b,
		hardIDs:    hardIDs,
		corners:    corners,
		exhaustive: exhaustive,
		sc:         runtime.Scenario{Durations: make([]model.Time, n), FaultsAt: make([]int, n)},
		idx:        make([]int, n),
	}
}

// explore runs every scenario of one fault pattern and summarises it into
// out. The scenario enumeration order is deterministic, so out.ce (the
// lowest-index violation) is too.
func (ex *explorer) explore(ctx context.Context, pat *pattern, out *patternOutcome) error {
	pat.faultsAt(ex.sc.FaultsAt)
	ex.sc.NFaults = len(pat.victims)
	out.minUtility = math.Inf(1)
	out.worstProc = model.NoProcess
	if ex.exhaustive {
		return ex.exploreExhaustive(ctx, out)
	}
	return ex.exploreFrontier(ctx, out)
}

// runOne executes the currently-loaded scenario on r and folds it into
// out.
func (ex *explorer) runOne(ctx context.Context, out *patternOutcome, r runner, record bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	scenarioIdx := int(out.scenarios)
	res, err := r.Run(ex.sc, record)
	if err != nil {
		return err
	}
	out.scenarios++
	for _, h := range ex.hardIDs {
		if res.Outcomes[h] != runtime.Completed {
			continue
		}
		slack := ex.b.deadline[h] - res.CompletionTimes[h]
		if !out.haveSlack || slack < out.worstSlack {
			out.haveSlack = true
			out.worstSlack = slack
			out.worstProc = h
		}
	}
	if res.Utility < out.minUtility {
		out.minUtility = res.Utility
	}
	if len(res.HardViolations) > 0 && out.ce == nil {
		proc := res.HardViolations[0]
		var completion model.Time
		if res.Outcomes[proc] == runtime.Completed {
			completion = res.CompletionTimes[proc]
		}
		sc := runtime.Scenario{
			Durations: append([]model.Time(nil), ex.sc.Durations...),
			FaultsAt:  append([]int(nil), ex.sc.FaultsAt...),
			NFaults:   ex.sc.NFaults,
		}
		out.ce = &Counterexample{
			Scenario:      sc,
			Proc:          proc,
			Deadline:      ex.b.deadline[proc],
			Completion:    completion,
			Utility:       res.Utility,
			ScenarioIndex: scenarioIdx,
		}
	}
	return nil
}

// exploreExhaustive crosses the pattern with every corner combination via
// an odometer over the per-process corner lists (last process varies
// fastest). A step records when the odometer carried, and the steps
// that move only the last process resume that record as leaves: against
// it they differ in the last process alone, so they resume where a
// record of their predecessor would let them, at a fraction of the
// recording.
func (ex *explorer) exploreExhaustive(ctx context.Context, out *patternOutcome) error {
	n := len(ex.corners)
	for p := 0; p < n; p++ {
		ex.idx[p] = 0
		ex.sc.Durations[p] = ex.corners[p][0]
	}
	for {
		if err := ex.runOne(ctx, out, ex.bg[0], ex.idx[n-1] == 0); err != nil {
			return err
		}
		p := n - 1
		for p >= 0 {
			ex.idx[p]++
			if ex.idx[p] < len(ex.corners[p]) {
				ex.sc.Durations[p] = ex.corners[p][ex.idx[p]]
				break
			}
			ex.idx[p] = 0
			ex.sc.Durations[p] = ex.corners[p][0]
			p--
		}
		if p < 0 {
			return nil
		}
	}
}

// exploreFrontier runs the all-BCET and all-WCET profiles plus every
// single-process corner deviation against both backgrounds (skipping
// deviations equal to the background, which the profiles already cover).
// The two profiles record; each deviation resumes its background's
// record at the deviating process's first entry.
func (ex *explorer) exploreFrontier(ctx context.Context, out *patternOutcome) error {
	profile := [2][]model.Time{ex.b.bcet, ex.b.wcet}
	for bg := range profile {
		copy(ex.sc.Durations, profile[bg])
		if err := ex.runOne(ctx, out, ex.bg[bg], true); err != nil {
			return err
		}
	}
	for p, cs := range ex.corners {
		for _, c := range cs {
			for bg := range profile {
				if c == profile[bg][p] {
					continue
				}
				copy(ex.sc.Durations, profile[bg])
				ex.sc.Durations[p] = c
				if err := ex.runOne(ctx, out, ex.bg[bg], false); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
