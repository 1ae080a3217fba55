// Command ftsched synthesises fault-tolerant schedules: the static FTSS
// f-schedule, the FTSF baseline, or the FTQS quasi-static tree, for a JSON
// application or a built-in fixture.
//
// Usage:
//
//	ftsched -fixture fig1 -algo ftqs -m 12
//	ftsched -app app.json -algo ftss
//	ftsched -fixture cc -algo ftqs -m 39 -format dot > tree.dot
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"ftsched/internal/appio"
	"ftsched/internal/baseline"
	"ftsched/internal/certify"
	"ftsched/internal/cli"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/schedule"
	"ftsched/internal/sim"
)

func main() {
	var (
		fixture = flag.String("fixture", "", "built-in application: fig1, fig4c, fig8, cc")
		appPath = flag.String("app", "", "JSON application file")
		algo    = flag.String("algo", "ftqs", "algorithm: ftss, ftsf, ftqs")
		m       = flag.Int("m", 16, "maximum quasi-static tree size (ftqs)")
		format  = flag.String("format", "text", "output format: text, dot")
		out     = flag.String("o", "-", "output file (- for stdout)")
		workers = flag.Int("workers", 0, "goroutines for the FTQS synthesis (0 = all CPUs, 1 = serial; the tree is identical for any value)")
		verify  = flag.Bool("verify", false, "audit the synthesised tree (ftqs only)")
		trim    = flag.Int("trim", 0, "trim arcs by paired simulation with this many scenarios per fault count (ftqs only)")
		treeOut = flag.String("tree-out", "", "also write the synthesised tree as compact JSON (ftqs only; v2, or v3/v4 when the application carries a platform/recovery model)")
		stats   = flag.Bool("stats", false, "print synthesis instrumentation counters to stderr (ftqs only)")
		doCert  = flag.Bool("certify", false, "exhaustively certify the result against <= -certify-faults faults through the compiled dispatcher")
		certFl  = flag.Int("certify-faults", 0, "fault bound for -certify (0 = the application's k)")
		ceOut   = flag.String("ce-out", "", "write the certification counterexample, if any, as JSON for ftsim -replay")
		recSpec = flag.String("recovery", "", cli.RecoveryFlagUsage)
	)
	flag.Parse()

	app, err := cli.LoadApp(*fixture, *appPath)
	if err != nil {
		fatal(err)
	}
	app, err = cli.ApplyRecoverySpec(app, *recSpec)
	if err != nil {
		fatal(err)
	}
	w, done, err := cli.OutputWriter(*out)
	if err != nil {
		fatal(err)
	}
	defer done()

	switch *algo {
	case "ftss", "ftsf":
		var s *schedule.FSchedule
		if *algo == "ftss" {
			s, err = core.FTSS(app)
		} else {
			s, err = baseline.FTSF(app)
		}
		if err != nil {
			fatal(err)
		}
		if *doCert {
			certifyTree(app, sim.StaticTree(app, s), *certFl, *workers, *ceOut)
		}
		if *format == "dot" {
			tree := sim.StaticTree(app, s)
			if err := appio.WriteTreeDOT(w, tree); err != nil {
				fatal(err)
			}
			return
		}
		fmt.Fprintf(w, "%s\n", app)
		fmt.Fprintf(w, "schedule: %s\n", s.Format(app))
		fmt.Fprintf(w, "expected no-fault utility: %.2f\n\n", schedule.ExpectedUtility(app, s))
		fmt.Fprint(w, schedule.TimingReport(app, s, app.K()))
	case "ftqs":
		var collector *obs.Metrics
		var sink obs.Sink
		if *stats {
			collector = obs.NewMetrics()
			sink = collector
		}
		tree, err := core.FTQS(app, core.FTQSOptions{M: *m, Workers: *workers, Sink: sink})
		if err != nil {
			fatal(err)
		}
		if *trim > 0 {
			removed, err := sim.Trim(tree, sim.TrimConfig{Scenarios: *trim, Seed: 1, Sink: sink})
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "trimmed %d arcs; %d schedules remain\n", removed, tree.Size())
		}
		if collector != nil {
			printStats(collector)
		}
		if *treeOut != "" {
			f, err := os.Create(*treeOut)
			if err != nil {
				fatal(err)
			}
			if err := appio.EncodeTreeCompact(f, tree); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "tree written to %s\n", *treeOut)
		}
		if *verify {
			if err := core.VerifyTree(tree); err != nil {
				fatal(err)
			}
			fmt.Fprintln(os.Stderr, "tree verified: all switch guards safe")
		}
		if *doCert {
			certifyTree(app, tree, *certFl, *workers, *ceOut)
		}
		if *format == "dot" {
			if err := appio.WriteTreeDOT(w, tree); err != nil {
				fatal(err)
			}
			return
		}
		fmt.Fprintf(w, "%s\n", app)
		fmt.Fprintf(w, "quasi-static tree: %d schedules, %d bytes\n",
			tree.Size(), tree.MemoryFootprint())
		fmt.Fprint(w, tree.Format())
	default:
		fatal(fmt.Errorf("unknown algorithm %q (want ftss, ftsf or ftqs)", *algo))
	}
}

// certifyTree runs the exhaustive certification engine and reports the
// verdict on stderr. A counterexample is written to ceOut (when set) in
// the format ftsim -replay consumes, and exits with status 1.
func certifyTree(app *model.Application, tree *core.Tree, maxFaults, workers int, ceOut string) {
	start := time.Now()
	rep, err := certify.Certify(tree, certify.Config{MaxFaults: maxFaults, Workers: workers})
	elapsed := time.Since(start)
	var ceErr *certify.CounterexampleError
	switch {
	case errors.As(err, &ceErr):
		ce := &ceErr.Counterexample
		fmt.Fprintf(os.Stderr, "certification FAILED: %s\n", err)
		if ceOut != "" {
			f, err := os.Create(ceOut)
			if err != nil {
				fatal(err)
			}
			enc := appio.NewCounterexample(app, ce.Scenario, ce.Proc, ce.Completion, ce.Path)
			if err := appio.EncodeCounterexample(f, enc); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "counterexample written to %s (replay: ftsim -replay %s)\n", ceOut, ceOut)
		}
		os.Exit(1)
	case err != nil:
		fatal(err)
	}
	fmt.Fprintf(os.Stderr,
		"certified: no hard deadline missed under <= %d faults (%s mode, %d patterns [+%d pruned], %d scenarios, %d bisection probes, %v)\n",
		rep.MaxFaults, rep.Mode, rep.Patterns, rep.PatternsPruned, rep.Scenarios, rep.BisectionRuns, elapsed.Round(time.Microsecond))
	if rep.WorstSlackProc != model.NoProcess {
		fmt.Fprintf(os.Stderr, "  worst hard slack: %d (process %s); minimum utility: %.2f\n",
			rep.WorstSlack, app.Proc(rep.WorstSlackProc).Name, rep.MinUtility)
	}
}

// printStats writes every non-zero counter of the run to stderr, sorted by
// name, so synthesis behaviour (memoisation hit rate, candidate rejection,
// worker utilisation) is inspectable without standing up the HTTP exporter.
func printStats(m *obs.Metrics) {
	snap := m.Snapshot()
	names := make([]string, 0, len(snap.Counters))
	for name, v := range snap.Counters {
		if v != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintln(os.Stderr, "synthesis stats:")
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "  %-40s %d\n", name, snap.Counters[name])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ftsched:", err)
	os.Exit(1)
}
