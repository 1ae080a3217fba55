// Command ftexperiments regenerates the evaluation of Izosimov et al.
// (DATE 2008): Fig. 9a, Fig. 9b, Table 1 and the cruise-controller case
// study, plus beyond-the-paper studies (overhead, optgap, hardratio,
// ftcost, energy, recovery, chaos). -exp all runs every study in that
// order; experiments.Studies holds each study's default budget.
//
// Usage:
//
//	ftexperiments -exp all                      # CI-sized defaults
//	ftexperiments -exp fig9 -apps 50 -scenarios 20000   # paper-sized
//	ftexperiments -exp table1 -apps 50 -scenarios 20000
//	ftexperiments -exp cc -scenarios 20000
//	ftexperiments -exp energy                   # heterogeneous-platform study
//	ftexperiments -exp recovery                 # recovery-model study
//	ftexperiments -exp chaos -scenarios 5000    # out-of-model containment
//
// A zero flag keeps the study's default. -apps reaches every study but cc
// and chaos, which run fixtures only; -m reaches every study but table1,
// which sweeps its own tree bounds; -scenarios is chaos's cycle count per
// policy; -trim is table1's alone.
//
// See EXPERIMENTS.md for recorded outputs and their comparison to the
// paper's numbers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"ftsched/internal/cli"
	"ftsched/internal/experiments"
)

// shutdownMetrics stops the -metrics-addr server; every exit path goes
// through exit() so in-flight scrapes are flushed before the process dies.
var shutdownMetrics func() error

func exit(code int) {
	if shutdownMetrics != nil {
		if err := shutdownMetrics(); err != nil {
			fmt.Fprintln(os.Stderr, "ftexperiments: metrics shutdown:", err)
		}
	}
	os.Exit(code)
}

// options is the parsed command line; budget carries the budget flags.
type options struct {
	exp, metricsAddr string
	budget           experiments.Budget
	trim             bool
}

// parseFlags defines the command's flags on fs and parses args.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.exp, "exp", "all", "experiment: "+studyList()+" or all")
	fs.IntVar(&o.budget.Apps, "apps", 0, "generated applications per study point (0 = default; cc and chaos run fixtures only)")
	fs.IntVar(&o.budget.Scenarios, "scenarios", 0, "Monte-Carlo scenarios; chaos: cycles per policy (0 = default)")
	fs.Int64Var(&o.budget.Seed, "seed", 0, "random seed (0 = default)")
	fs.IntVar(&o.budget.M, "m", 0, "FTQS tree bound (0 = default; table1 sweeps its own bounds)")
	fs.BoolVar(&o.trim, "trim", false, "apply simulation-based arc trimming (table1)")
	fs.IntVar(&o.budget.Workers, "workers", 0, "goroutines for FTQS synthesis and Monte-Carlo evaluation (0 = all CPUs, 1 = serial; results are identical for any value)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve Prometheus /metrics, expvar /debug/vars and /debug/pprof on this address (e.g. :8080) for the lifetime of the run")
	return o, fs.Parse(args)
}

// studyList names every study in run order, aliases in parentheses.
func studyList() string {
	names := make([]string, len(experiments.Studies))
	for i, s := range experiments.Studies {
		names[i] = s.Name
		if len(s.Aliases) > 0 {
			names[i] += " (" + strings.Join(s.Aliases, ", ") + ")"
		}
	}
	return strings.Join(names, ", ")
}

// selectStudies returns the studies -exp name runs.
func selectStudies(name string) ([]experiments.Study, error) {
	if name == "all" {
		return experiments.Studies, nil
	}
	for _, s := range experiments.Studies {
		if s.Name == name || slices.Contains(s.Aliases, name) {
			return []experiments.Study{s}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (want %s or all)", name, studyList())
}

// runStudy runs s under its default budget overridden by the flags and
// prints the report and a footer with the budget and elapsed time to w.
func runStudy(w io.Writer, s experiments.Study, o options) error {
	t0 := time.Now()
	rep, footer, err := s.Run(s.Budget.With(o.budget), o.trim)
	if err != nil {
		return err
	}
	fmt.Fprint(w, rep.Format())
	fmt.Fprintf(w, "(%s, %s)\n\n", footer, time.Since(t0).Round(time.Millisecond))
	return nil
}

func main() {
	o, _ := parseFlags(flag.CommandLine, os.Args[1:]) // exits 2 on a flag error
	studies, err := selectStudies(o.exp)
	if err != nil {
		fatal(err)
	}
	metrics, err := cli.ServeMetrics("ftexperiments", o.metricsAddr)
	if err != nil {
		fatal(err)
	}
	shutdownMetrics = metrics.Shutdown
	o.budget.Sink = metrics.Sink()
	if metrics != nil {
		// A signal mid-run flushes the metrics endpoint before exiting, so
		// the final scrape still observes the completed experiments'
		// counters instead of racing a torn-down listener.
		go func() {
			s := <-cli.NotifySignals()
			fmt.Fprintf(os.Stderr, "ftexperiments: %v: flushing metrics and exiting\n", s)
			fatal(fmt.Errorf("interrupted by %v", s))
		}()
	}
	for _, s := range studies {
		if err := runStudy(os.Stdout, s, o); err != nil {
			fatal(err)
		}
	}
	exit(0)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ftexperiments:", err)
	exit(1)
}
