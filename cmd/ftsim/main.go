// Command ftsim evaluates the three scheduling algorithms on an
// application by Monte-Carlo simulation: mean utility under 0..k injected
// transient faults, schedule switches, re-executions, and a hard-deadline
// audit. It also replays certification counterexamples (-replay) against
// a tree, rendering the offending cycle as a Gantt chart, and runs seeded
// chaos campaigns (-chaos) that push the dispatcher outside the fault
// model — WCET overruns, >k fault bursts — and score the containment
// contract of the selected degrade policy.
//
// Usage:
//
//	ftsim -fixture cc -m 39 -scenarios 20000
//	ftsim -fixture cc -scenarios 1000000 -workers 4
//	ftsim -app app.json -scenarios 5000 -seed 7
//	ftsim -fixture fig1 -tree tree.json -replay ce.json
//	ftsim -fixture fig8 -chaos -chaos-seed 42 -policy shed-soft
//	ftsim -fixture fig8 -chaos -chaos-faults 3 -ce-out bad-cycle.json
//	ftsim -fixture cc -remote http://127.0.0.1:8433 -scenarios 20000
//	ftsim -fixture fig8 -chaos -remote http://127.0.0.1:8433
//
// With -remote the FTQS table rows (or the chaos campaign) run through an
// ftserved process over the ftsched-api/v1 wire; results are bit-identical
// to the in-process path. The FTSS/FTSF baseline rows are local-only.
//
// Exit status — this table is the canonical reference; scripts and CI
// gate on these codes:
//
//	0  success: nothing to report (chaos: campaign ran clean)
//	1  errors — I/O, synthesis failure, or a chaos contract violation
//	   (a panic, a detection gap, an in-model miss, or a hard miss the
//	   policy promised to absorb)
//	2  flag parse errors (from package flag)
//	3  a loaded tree failed verification (pass -force to replay against
//	   it anyway)
//	4  a replayed counterexample reproduced a hard violation with an
//	   in-model scenario (durations within [BCET,WCET], faults <= k):
//	   a genuine certification counterexample
//	5  hard deadlines missed only under out-of-model injection: the
//	   chaos campaign's misses all trace to injected overruns or >k
//	   bursts the policy does not promise to absorb, or the replayed
//	   scenario itself violates the fault model
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"ftsched/client"
	"ftsched/internal/appio"
	"ftsched/internal/baseline"
	"ftsched/internal/chaos"
	"ftsched/internal/cli"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/runtime"
	"ftsched/internal/serveapi"
	"ftsched/internal/sim"
	"ftsched/internal/stats"
)

// Distinct exit codes so scripts can tell "bad tree" from "bad anything".
// The package comment above holds the canonical table.
const (
	exitErr        = 1
	exitBadTree    = 3
	exitReproduced = 4
	exitOutOfModel = 5
)

// shutdownMetrics stops the -metrics-addr server; every exit path goes
// through exit() so in-flight scrapes are flushed before the process dies
// instead of racing run completion.
var shutdownMetrics func() error

func exit(code int) {
	if shutdownMetrics != nil {
		if err := shutdownMetrics(); err != nil {
			fmt.Fprintln(os.Stderr, "ftsim: metrics shutdown:", err)
		}
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ftsim:", err)
	exit(exitErr)
}

func main() {
	var (
		fixture     = flag.String("fixture", "", "built-in application: fig1, fig4c, fig8, cc")
		appPath     = flag.String("app", "", "JSON application file")
		m           = flag.Int("m", 16, "maximum quasi-static tree size")
		scenarios   = flag.Int("scenarios", 5000, "Monte-Carlo scenarios per configuration")
		seed        = flag.Int64("seed", 1, "simulation seed")
		workers     = flag.Int("workers", 0, "evaluation goroutines for Monte-Carlo and chaos (0: all CPUs; results are identical for any value)")
		trace       = flag.Bool("trace", false, "render one sample scenario per fault count as a Gantt chart")
		treeIn      = flag.String("tree", "", "load a stored quasi-static tree (JSON) instead of synthesising one; it is verified before use")
		replay      = flag.String("replay", "", "replay a certification counterexample (JSON from ftsched -certify) against the tree and exit")
		force       = flag.Bool("force", false, "with -replay: replay even when the tree fails verification")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics, expvar /debug/vars and /debug/pprof on this address (e.g. :8080) for the lifetime of the run")
		remote      = flag.String("remote", "", "base URL of an ftserved (e.g. http://127.0.0.1:8433): run the FTQS table (or -chaos) through the service instead of in-process")
		tenant      = flag.String("tenant", "", "with -remote: tenant to account the requests against (X-FTSched-Tenant)")
		retries     = flag.Int("retries", 5, "with -remote: total attempts per request through the self-healing client (1 = no retries); retryable rejections and wire faults are retried with capped full-jitter backoff")
		retryBase   = flag.Duration("retry-base", 25*time.Millisecond, "with -remote: base backoff delay between retries")

		chaosMode   = flag.Bool("chaos", false, "run a seeded chaos campaign (out-of-model injection) instead of the Monte-Carlo table")
		chaosCycles = flag.Int("chaos-cycles", 1000, "chaos: cycles per campaign")
		chaosSeed   = flag.Int64("chaos-seed", 0, "chaos: campaign seed (0: use -seed)")
		chaosOver   = flag.Float64("chaos-overrun", 0.25, "chaos: per-cycle WCET-overrun probability")
		chaosFactor = flag.Float64("chaos-overrun-factor", 2.0, "chaos: overrun duration as a multiple of WCET")
		chaosBurst  = flag.Float64("chaos-burst", 0.25, "chaos: per-cycle probability of a fault burst exceeding k")
		chaosFaults = flag.Int("chaos-faults", 2, "chaos: faults beyond k per burst")
		chaosTarget = flag.String("chaos-target", "soft", "chaos: victim pool, soft or any")
		policyName  = flag.String("policy", "", "degrade policy for -chaos and -replay: strict, shed-soft or best-effort (chaos default: shed-soft; replay default: no envelope)")
		clamp       = flag.Bool("clamp", false, "with a policy: truncate out-of-model durations at WCET (watchdog semantics)")
		ceOut       = flag.String("ce-out", "", "chaos: write the first offending cycle as a replayable counterexample JSON file")
		recSpec     = flag.String("recovery", "", cli.RecoveryFlagUsage)
	)
	flag.Parse()

	metrics, err := cli.ServeMetrics("ftsim", *metricsAddr)
	if err != nil {
		fatal(err)
	}
	shutdownMetrics = metrics.Shutdown
	sink := metrics.Sink()
	if metrics != nil {
		// A signal mid-run exits through exit(), which flushes the metrics
		// endpoint gracefully — the final scrape still observes everything
		// the run recorded before the interrupt.
		go func() {
			s := <-cli.NotifySignals()
			fmt.Fprintf(os.Stderr, "ftsim: %v: flushing metrics and exiting\n", s)
			exit(exitErr)
		}()
	}

	app, err := cli.LoadApp(*fixture, *appPath)
	if err != nil {
		fatal(err)
	}
	app, err = cli.ApplyRecoverySpec(app, *recSpec)
	if err != nil {
		fatal(err)
	}
	fmt.Println(app)

	// The chaos configuration is shared by the local and -remote paths;
	// build it once so both campaigns score the same injection mix.
	var chaosCfg chaos.Config
	if *chaosMode {
		if *chaosTarget != "soft" && *chaosTarget != "any" {
			fatal(fmt.Errorf("-chaos-target must be soft or any, got %q", *chaosTarget))
		}
		csd := *chaosSeed
		if csd == 0 {
			csd = *seed
		}
		pol := runtime.PolicyShedSoft
		if *policyName != "" {
			if err := pol.UnmarshalText([]byte(*policyName)); err != nil {
				fatal(err)
			}
		}
		chaosCfg = chaos.Config{
			Cycles:        *chaosCycles,
			Seed:          csd,
			Workers:       *workers,
			Policy:        pol,
			Clamp:         *clamp,
			BaseFaults:    min(1, app.K()),
			OverrunProb:   *chaosOver,
			OverrunFactor: *chaosFactor,
			BurstProb:     *chaosBurst,
			ExtraFaults:   *chaosFaults,
			SoftOnly:      *chaosTarget == "soft",
			Sink:          sink,
		}
	}

	if *remote != "" {
		if *treeIn != "" || *replay != "" || *trace || *ceOut != "" {
			fatal(fmt.Errorf("-remote supports the Monte-Carlo table and -chaos only (not -tree, -replay, -trace or -ce-out)"))
		}
		runRemote(app, *remote, *tenant, *m, *scenarios, *seed, *workers, *retries, *retryBase, *chaosMode, chaosCfg)
		return
	}

	ftss, err := core.FTSS(app)
	if err != nil {
		fatal(err)
	}
	var tree *core.Tree
	if *treeIn != "" {
		f, err := os.Open(*treeIn)
		if err != nil {
			fatal(err)
		}
		tree, err = appio.DecodeTree(f, app)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if err := core.VerifyTree(tree); err != nil {
			// One-line diagnostic and a distinct status: scripts gate
			// deployment on this exit code, and the full issue list is a
			// VerifyError away (ftsched -verify prints it).
			fmt.Fprintf(os.Stderr, "ftsim: tree %s failed verification: %s\n", *treeIn, cli.FirstLine(err))
			if *replay == "" || !*force {
				exit(exitBadTree)
			}
			fmt.Fprintln(os.Stderr, "ftsim: -force: replaying against the unverified tree")
		} else {
			fmt.Printf("loaded and verified tree from %s\n", *treeIn)
		}
	} else {
		tree, err = core.FTQSFromRoot(app, ftss, core.FTQSOptions{M: *m, Sink: sink})
		if err != nil {
			fatal(err)
		}
	}

	if *replay != "" {
		replayCounterexample(app, tree, *replay, *policyName, *clamp)
		return
	}

	if *chaosMode {
		runChaosCampaign(app, tree, chaosCfg, *ceOut)
		return
	}

	trees := []struct {
		name string
		t    *core.Tree
	}{
		{"FTQS", tree},
		{"FTSS", sim.StaticTree(app, ftss)},
	}
	ftsf, err := baseline.FTSF(app)
	if err != nil {
		fmt.Printf("FTSF baseline: unschedulable (%v) — omitted\n", err)
		fmt.Printf("FTQS tree: %d schedules; FTSS: %d entries\n\n", tree.Size(), len(ftss.Entries))
	} else {
		trees = append(trees, struct {
			name string
			t    *core.Tree
		}{"FTSF", sim.StaticTree(app, ftsf)})
		fmt.Printf("FTQS tree: %d schedules; FTSS: %d entries; FTSF: %d entries\n\n",
			tree.Size(), len(ftss.Entries), len(ftsf.Entries))
	}

	// One compiled dispatcher per tree, shared by the k+1 fault
	// configurations (and carrying the metrics sink when one is serving).
	dispatchers := make([]*runtime.Dispatcher, len(trees))
	for i, tr := range trees {
		dispatchers[i], err = runtime.NewDispatcher(tr.t, runtime.WithSink(sink))
		if err != nil {
			fatal(err)
		}
	}

	var base float64
	printTableHeader()
	for f := 0; f <= app.K(); f++ {
		for i, tr := range trees {
			st, err := sim.MonteCarlo(tr.t, sim.MCConfig{
				Scenarios: *scenarios, Faults: f, Seed: *seed, Workers: *workers,
				Dispatcher: dispatchers[i], Sink: sink,
			})
			if err != nil {
				fatal(err)
			}
			if tr.name == "FTQS" && f == 0 {
				base = st.MeanUtility
			}
			printTableRow(tr.name, f, st, base)
		}
	}

	if *trace {
		d, err := runtime.NewDispatcher(tree)
		if err != nil {
			fatal(err)
		}
		var sc sim.Scenario
		for f := 0; f <= app.K(); f++ {
			rng := sim.NewRNG(sim.ScenarioSeed(*seed, f))
			if err := sim.SampleRNGInto(&sc, app, &rng, f, nil); err != nil {
				fatal(err)
			}
			res, events, err := d.RunTrace(sc)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("\nsample scenario with %d fault(s): utility %.1f, %d switch(es)\n",
				f, res.Utility, res.Switches)
			if err := appio.WriteGantt(os.Stdout, app, events, 0, 84); err != nil {
				fatal(err)
			}
		}
	}
	exit(0)
}

// replayCounterexample re-executes a counterexample through the tree's
// real dispatcher — under a containment envelope when a policy is named —
// and renders the cycle. A reproduced hard violation exits with
// exitReproduced when the scenario is in-model, and with exitOutOfModel
// when the scenario itself leaves the fault model (chaos exports do), so
// scripts can tell a certification bug from an injection artefact.
func replayCounterexample(app *model.Application, tree *core.Tree, path, policyName string, clamp bool) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	sc, ce, err := appio.DecodeCounterexample(f, app)
	f.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replaying counterexample from %s: %d fault(s)", path, sc.NFaults)
	if ce.Proc != "" {
		fmt.Printf(", expected violation on %s (deadline %d, completion %d)", ce.Proc, ce.Deadline, ce.Completion)
	}
	fmt.Println()
	inModel := sc.Validate(app) == nil
	if !inModel {
		fmt.Println("scenario is out-of-model (injected overruns or faults beyond k)")
	}

	var opts []runtime.Option
	if policyName != "" {
		var pol runtime.DegradePolicy
		if err := pol.UnmarshalText([]byte(policyName)); err != nil {
			fatal(err)
		}
		fmt.Printf("containment envelope attached: policy %s\n", pol)
		opts = append(opts, runtime.WithEnvelope(runtime.EnvelopeConfig{Policy: pol, Clamp: clamp}))
	}
	d, err := runtime.NewDispatcher(tree, opts...)
	if err != nil {
		fatal(err)
	}
	res, events, err := d.RunTrace(sc)
	var envErr *runtime.EnvelopeError
	if errors.As(err, &envErr) {
		if gerr := appio.WriteGantt(os.Stdout, app, events, 0, 84); gerr != nil {
			fatal(gerr)
		}
		fmt.Printf("strict envelope abort: %v\n", envErr)
		exit(exitOutOfModel)
	}
	if err != nil {
		fatal(err)
	}
	if err := appio.WriteGantt(os.Stdout, app, events, 0, 84); err != nil {
		fatal(err)
	}
	for _, ev := range res.Violations {
		fmt.Printf("envelope event: %s on %s at %d (magnitude %d)\n",
			ev.Kind, app.Proc(ev.Proc).Name, ev.At, ev.Magnitude)
	}
	if res.Degraded {
		fmt.Println("cycle degraded: remaining soft work shed, hard processes on emergency suffix")
	}
	if len(res.HardViolations) > 0 {
		for _, v := range res.HardViolations {
			p := app.Proc(v)
			fmt.Printf("hard violation reproduced: %s (deadline %d, completion %d)\n",
				p.Name, p.Deadline, res.CompletionTimes[v])
		}
		if inModel {
			exit(exitReproduced)
		}
		exit(exitOutOfModel)
	}
	fmt.Println("no hard violation in this replay (tree or scenario differs from the certified run)")
	exit(0)
}

// runChaosCampaign executes a seeded out-of-model injection campaign and
// scores the containment contract. Exit: 1 on any contract violation
// (panic, detection gap, in-model miss, breach), exitOutOfModel when hard
// deadlines were missed only under injections the policy does not promise
// to absorb, 0 when the campaign ran clean.
func runChaosCampaign(app *model.Application, tree *core.Tree, cfg chaos.Config, cePath string) {
	c, err := chaos.New(tree, cfg)
	if err != nil {
		fatal(err)
	}
	rep, err := c.Run()
	if err != nil {
		fatal(err)
	}
	reportChaos(rep, cfg)

	if cePath != "" {
		if err := exportChaosCounterexample(app, tree, c, rep, cfg, cePath); err != nil {
			fatal(err)
		}
	}
	chaosExit(rep)
}

// reportChaos prints the campaign summary — identical for a local run and
// a -remote one (the report travels the wire losslessly).
func reportChaos(rep *chaos.Report, cfg chaos.Config) {
	clampNote := ""
	if cfg.Clamp {
		clampNote = ", clamp"
	}
	fmt.Printf("chaos campaign: %d cycles, seed %d, policy %s%s, target %s\n",
		rep.Cycles, cfg.Seed, cfg.Policy, clampNote, map[bool]string{true: "soft", false: "any"}[cfg.SoftOnly])
	fmt.Printf("injected:  %d cycles (overruns %d, >k bursts %d, regressions %d)\n",
		rep.Injected, rep.Overruns, rep.ExtraFaults, rep.TimeRegressions)
	fmt.Printf("envelope:  degraded %d, budget exhausted %d, strict errors %d\n",
		rep.Degraded, rep.BudgetExhausted, rep.StrictErrors)
	fmt.Printf("misses:    hard %d (in-model %d)\n", rep.HardMisses, rep.InModelMisses)
	fmt.Printf("contract:  breaches %d, detection gaps %d, panics %d\n",
		rep.Breaches, rep.DetectionGaps, rep.Panics)
}

// chaosExit maps a campaign report to the canonical exit table.
func chaosExit(rep *chaos.Report) {
	switch {
	case rep.Panics+rep.Breaches+rep.DetectionGaps+rep.InModelMisses > 0:
		fmt.Println("chaos: CONTRACT VIOLATED")
		exit(exitErr)
	case rep.HardMisses > 0:
		fmt.Println("chaos: hard misses only under out-of-model injection (not absorbed by policy)")
		exit(exitOutOfModel)
	default:
		fmt.Println("chaos: clean")
		exit(0)
	}
}

func printTableHeader() {
	fmt.Printf("%-6s %-7s %10s %8s %9s %9s %9s %9s %6s\n",
		"algo", "faults", "utility", "norm%", "p5", "p95", "switches", "recov", "viol")
}

func printTableRow(name string, f int, st sim.MCStats, base float64) {
	fmt.Printf("%-6s %-7d %10.2f %8.1f %9.1f %9.1f %9.2f %9.2f %6d\n",
		name, f, st.MeanUtility, stats.Ratio(st.MeanUtility, base),
		st.P05, st.P95, st.MeanSwitches, st.MeanRecoveries, st.HardViolations)
}

// runRemote drives the run through an ftserved process instead of the
// in-process engines: synthesise (or fetch from the server cache) the FTQS
// tree once, then evaluate per fault count — or run the chaos campaign —
// over the ftsched-api/v1 wire. Results are bit-identical to the local
// path (the wire determinism contract), so the printed table matches a
// local FTQS run row for row. The FTSS/FTSF baselines are local-only
// constructions the service does not expose; rerun without -remote for
// the full comparison table.
func runRemote(app *model.Application, baseURL, tenant string, m, scenarios int, seed int64, workers, retries int, retryBase time.Duration, chaosMode bool, chaosCfg chaos.Config) {
	var opts []client.Option
	if tenant != "" {
		opts = append(opts, client.WithTenant(tenant))
	}
	if retries > 1 {
		// The self-healing client rides out admission rejections, wire
		// faults and server restarts; results are byte-identical to a
		// fault-free run because retries are idempotent under the
		// server's SHA-256 tree cache.
		policy := client.DefaultRetryPolicy()
		policy.MaxAttempts = retries
		policy.BaseDelay = retryBase
		opts = append(opts, client.WithRetryPolicy(policy))
	}
	cl := client.New(baseURL, opts...)

	var buf bytes.Buffer
	if err := appio.EncodeApplication(&buf, app); err != nil {
		fatal(err)
	}
	ctx := context.Background()
	syn, err := cl.Synthesize(ctx, serveapi.SynthesizeRequest{
		App:     buf.Bytes(),
		Options: core.FTQSOptions{M: m, Workers: workers},
	})
	if err != nil {
		fatal(err)
	}
	how := "server cache hit"
	if !syn.CacheHit {
		how = fmt.Sprintf("compiled in %.0fms", syn.CompileMillis)
	}
	fmt.Printf("FTQS tree: %d schedules (remote %s, %s)\n", syn.Nodes, baseURL, how)
	fmt.Printf("baselines (FTSS, FTSF) are local-only; rerun without -remote for the full table\n\n")

	if chaosMode {
		resp, err := cl.Chaos(ctx, serveapi.ChaosRequest{
			TreeRef: serveapi.TreeRef{TreeKey: syn.TreeKey},
			Config:  serveapi.ChaosConfigJSONOf(chaosCfg),
		})
		if err != nil {
			fatal(err)
		}
		reportChaos(resp.Report, chaosCfg)
		chaosExit(resp.Report)
	}

	var base float64
	printTableHeader()
	for f := 0; f <= app.K(); f++ {
		resp, err := cl.Eval(ctx, serveapi.EvalRequest{
			TreeRef: serveapi.TreeRef{TreeKey: syn.TreeKey},
			Config:  sim.MCConfig{Scenarios: scenarios, Faults: f, Seed: seed, Workers: workers},
		})
		if err != nil {
			fatal(err)
		}
		st := resp.Stats
		if f == 0 {
			base = st.MeanUtility
		}
		printTableRow("FTQS", f, st, base)
	}
	exit(0)
}

// exportChaosCounterexample writes the first offending cycle — a contract
// breach if any, else the first hard miss — as a replayable
// counterexample record (ftsim -replay reads it back; the scenario
// re-derivation is exact, see chaos.Campaign.Scenario).
func exportChaosCounterexample(app *model.Application, tree *core.Tree, c *chaos.Campaign, rep *chaos.Report, cfg chaos.Config, path string) error {
	pick := -1
	for _, rec := range rep.Records {
		if rec.Breach || rec.InModelMiss || rec.Panic != "" {
			pick = rec.Cycle
			break
		}
		if pick < 0 && rec.HardMiss {
			pick = rec.Cycle
		}
	}
	if pick < 0 {
		fmt.Println("ce-out: no offending cycle to export (campaign clean)")
		return nil
	}
	sc, err := c.Scenario(pick)
	if err != nil {
		return err
	}
	// Re-run the cycle through an identically-configured dispatcher to
	// recover the completion times the record does not store.
	d, err := runtime.NewDispatcher(tree, runtime.WithEnvelope(runtime.EnvelopeConfig{Policy: cfg.Policy, Clamp: cfg.Clamp}))
	if err != nil {
		return err
	}
	res, err := d.Run(sc)
	var envErr *runtime.EnvelopeError
	if err != nil && !errors.As(err, &envErr) {
		return err
	}
	proc, completion := model.NoProcess, model.Time(0)
	if len(res.HardViolations) > 0 {
		proc = res.HardViolations[0]
		completion = res.CompletionTimes[proc]
	}
	ce := appio.NewCounterexample(app, sc, proc, completion, nil)
	ce.Violations = appio.NewViolationRecords(app, rep.Records[pick].Violations)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := appio.EncodeCounterexample(f, ce); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("ce-out: cycle %d written to %s (replay: ftsim -replay %s -policy %s)\n",
		pick, path, path, cfg.Policy)
	return nil
}
