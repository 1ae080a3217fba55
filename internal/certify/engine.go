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
	MaxFaults int
	// Workers bounds the goroutines exploring fault patterns; 0 means
	// GOMAXPROCS. The report and any counterexample are identical for
	// every worker count.
	Workers int
	// Budget caps the scenarios exhaustive mode may plan; above it the
	// engine switches to frontier mode (never silently truncates). 0 means
	// the default (~2M).
	Budget int64
	// MaxBoundaries caps the bisection change points collected per
	// process; 0 means the default (4), negative disables bisection.
	MaxBoundaries int
	// Sink receives certification counters and histograms, and is routed
	// into the dispatcher the scenarios execute on.
	Sink obs.Sink
}

// Report summarises what a certification run explored, whether it ended in
// a certificate or a counterexample.
type Report struct {
	// Mode is "exhaustive" (every pattern x corner combination ran) or
	// "frontier" (extreme profiles plus single-process deviations).
	Mode string
	// MaxFaults is the resolved fault bound that was certified.
	MaxFaults int
	// Patterns counts canonical fault patterns explored; PatternsPruned
	// counts raw patterns collapsed into them by canonicalisation.
	Patterns       int
	PatternsPruned int
	// Scenarios counts dispatcher executions performed (excluding the
	// bisection probes, reported separately as BisectionRuns).
	Scenarios     int64
	BisectionRuns int64
	// WorstSlack is the minimum hard-deadline slack observed over every
	// explored scenario, and WorstSlackProc the process realising it;
	// WorstSlackProc is model.NoProcess when no hard process completed.
	// Slack at or below zero comes with a counterexample.
	WorstSlack     model.Time
	WorstSlackProc model.ProcessID
	// MinUtility is the lowest cycle utility observed and
	// MinUtilityFaultsAt the fault placement (per-process counts) that
	// produced it — the utility-minimising adversary within the explored
	// set.
	MinUtility         float64
	MinUtilityFaultsAt []int
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

	corners, bisRuns, err := cornerSets(ctx, d, app, maxBoundaries)
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
		ex := newExplorer(d, app, corners, exhaustive)
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
	cePattern := -1
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
			rep.MinUtilityFaultsAt = append(rep.MinUtilityFaultsAt[:0], patterns[pi].counts...)
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

// explorer is one worker's reusable scenario state.
type explorer struct {
	d          *runtime.Dispatcher
	app        *model.Application
	corners    [][]model.Time
	exhaustive bool
	sc         runtime.Scenario
	res        runtime.Result
	idx        []int
	hardIDs    []model.ProcessID
}

func newExplorer(d *runtime.Dispatcher, app *model.Application, corners [][]model.Time, exhaustive bool) *explorer {
	n := app.N()
	return &explorer{
		d:          d,
		app:        app,
		corners:    corners,
		exhaustive: exhaustive,
		sc:         runtime.Scenario{Durations: make([]model.Time, n)},
		idx:        make([]int, n),
		hardIDs:    app.HardIDs(),
	}
}

// explore runs every scenario of one fault pattern and summarises it into
// out. The scenario enumeration order is deterministic, so out.ce (the
// lowest-index violation) is too.
func (ex *explorer) explore(ctx context.Context, pat *pattern, out *patternOutcome) error {
	// FaultsAt is read-only to the dispatcher, so the pattern's counts are
	// shared, not copied.
	ex.sc.FaultsAt = pat.counts
	ex.sc.NFaults = pat.total
	out.minUtility = math.Inf(1)
	out.worstProc = model.NoProcess
	if ex.exhaustive {
		return ex.exploreExhaustive(ctx, out)
	}
	return ex.exploreFrontier(ctx, out)
}

// runOne executes the currently-loaded scenario and folds it into out.
func (ex *explorer) runOne(ctx context.Context, out *patternOutcome) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	scenarioIdx := int(out.scenarios)
	if err := ex.d.RunInto(&ex.res, ex.sc); err != nil {
		return err
	}
	out.scenarios++
	for _, h := range ex.hardIDs {
		if ex.res.Outcomes[h] != runtime.Completed {
			continue
		}
		slack := ex.app.Proc(h).Deadline - ex.res.CompletionTimes[h]
		if !out.haveSlack || slack < out.worstSlack {
			out.haveSlack = true
			out.worstSlack = slack
			out.worstProc = h
		}
	}
	if ex.res.Utility < out.minUtility {
		out.minUtility = ex.res.Utility
	}
	if len(ex.res.HardViolations) > 0 && out.ce == nil {
		proc := ex.res.HardViolations[0]
		var completion model.Time
		if ex.res.Outcomes[proc] == runtime.Completed {
			completion = ex.res.CompletionTimes[proc]
		}
		sc := runtime.Scenario{
			Durations: append([]model.Time(nil), ex.sc.Durations...),
			FaultsAt:  append([]int(nil), ex.sc.FaultsAt...),
			NFaults:   ex.sc.NFaults,
		}
		out.ce = &Counterexample{
			Scenario:      sc,
			Proc:          proc,
			Deadline:      ex.app.Proc(proc).Deadline,
			Completion:    completion,
			Utility:       ex.res.Utility,
			ScenarioIndex: scenarioIdx,
		}
	}
	return nil
}

// exploreExhaustive crosses the pattern with every corner combination via
// an odometer over the per-process corner lists (last process varies
// fastest).
func (ex *explorer) exploreExhaustive(ctx context.Context, out *patternOutcome) error {
	n := len(ex.corners)
	for p := 0; p < n; p++ {
		ex.idx[p] = 0
		ex.sc.Durations[p] = ex.corners[p][0]
	}
	for {
		if err := ex.runOne(ctx, out); err != nil {
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
func (ex *explorer) exploreFrontier(ctx context.Context, out *patternOutcome) error {
	n := ex.app.N()
	setAll := func(wcet bool) {
		for p := 0; p < n; p++ {
			proc := ex.app.Proc(model.ProcessID(p))
			if wcet {
				ex.sc.Durations[p] = proc.WCET
			} else {
				ex.sc.Durations[p] = proc.BCET
			}
		}
	}
	setAll(false)
	if err := ex.runOne(ctx, out); err != nil {
		return err
	}
	setAll(true)
	if err := ex.runOne(ctx, out); err != nil {
		return err
	}
	for p := 0; p < n; p++ {
		proc := ex.app.Proc(model.ProcessID(p))
		for _, c := range ex.corners[p] {
			if c != proc.BCET {
				setAll(false)
				ex.sc.Durations[p] = c
				if err := ex.runOne(ctx, out); err != nil {
					return err
				}
			}
			if c != proc.WCET {
				setAll(true)
				ex.sc.Durations[p] = c
				if err := ex.runOne(ctx, out); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
