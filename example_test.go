package ftsched_test

import (
	"fmt"

	"ftsched"
)

// Example synthesises a static fault-tolerant schedule for the paper's
// running example and prints its expected utility.
func Example() {
	app := ftsched.PaperFig1()
	s, err := ftsched.FTSS(app)
	if err != nil {
		panic(err)
	}
	fmt.Println(s.Format(app))
	fmt.Printf("expected utility: %.0f\n", ftsched.ExpectedUtility(app, s))
	// Output:
	// P1(f=1) P3 P2(f=1)
	// expected utility: 60
}

// ExampleFTQS builds a quasi-static tree and shows its size and memory
// footprint.
func ExampleFTQS() {
	app := ftsched.PaperFig1()
	tree, err := ftsched.FTQS(app, ftsched.FTQSOptions{M: 4})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d schedules, root: %s\n", tree.Size(), tree.Root().Schedule.Format(app))
	if err := ftsched.VerifyTree(tree); err != nil {
		panic(err)
	}
	fmt.Println("verified")
	// Output:
	// 4 schedules, root: P1(f=1) P3 P2(f=1)
	// verified
}

// ExampleFTQS_options shows the full synthesis configuration: the tree
// bound M, the Monte-Carlo effort behind each candidate's gain estimate,
// and Workers, which fans candidate generation out over a bounded pool of
// goroutines. The tree is identical for every worker count — Workers: 1
// forces the fully serial path, 0 uses one goroutine per CPU — so the
// option is purely a wall-clock knob.
func ExampleFTQS_options() {
	app := ftsched.PaperFig1()
	opts := ftsched.FTQSOptions{
		M:             12,
		EvalScenarios: 16,
		Workers:       4,
	}
	tree, err := ftsched.FTQS(app, opts)
	if err != nil {
		panic(err)
	}
	serial, err := ftsched.FTQS(app, ftsched.FTQSOptions{
		M:             12,
		EvalScenarios: 16,
		Workers:       1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d schedules, identical to serial: %v\n",
		tree.Size(), tree.Format() == serial.Format())
	// Output:
	// 3 schedules, identical to serial: true
}

// ExampleMonteCarlo_workers runs the same Monte-Carlo evaluation
// sequentially and over four goroutines: the batch engine derives every
// scenario from (Seed, index) and folds statistics in fixed block order,
// so the two runs return bit-identical MCStats.
func ExampleMonteCarlo_workers() {
	app := ftsched.CruiseController()
	tree, err := ftsched.FTQS(app, ftsched.FTQSOptions{M: 8})
	if err != nil {
		panic(err)
	}
	cfg := ftsched.MCConfig{Scenarios: 10000, Faults: 1, Seed: 7, Workers: 1}
	serial, err := ftsched.MonteCarlo(tree, cfg)
	if err != nil {
		panic(err)
	}
	cfg.Workers = 4
	parallel, err := ftsched.MonteCarlo(tree, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("identical stats: %v\n", serial == parallel)
	fmt.Printf("hard violations: %d\n", parallel.HardViolations)
	// Output:
	// identical stats: true
	// hard violations: 0
}

// ExampleRun executes one deterministic scenario — a transient fault hits
// the hard process P1, which re-executes inside its recovery slack and
// still meets its deadline.
func ExampleRun() {
	app := ftsched.PaperFig1()
	s, err := ftsched.FTSS(app)
	if err != nil {
		panic(err)
	}
	tree := ftsched.StaticTree(app, s)

	sc := ftsched.Scenario{
		Durations: make([]ftsched.Time, app.N()),
		FaultsAt:  make([]int, app.N()),
	}
	for id := 0; id < app.N(); id++ {
		sc.Durations[id] = app.Proc(ftsched.ProcessID(id)).AET
	}
	p1 := app.IDByName("P1")
	sc.FaultsAt[p1] = 1
	sc.NFaults = 1

	r, err := ftsched.Run(tree, sc)
	if err != nil {
		panic(err)
	}
	fmt.Printf("P1 completed at %d (deadline %d), re-executions %d, violations %d\n",
		r.CompletionTimes[p1], app.Proc(p1).Deadline, r.Recoveries, len(r.HardViolations))
	// Output:
	// P1 completed at 110 (deadline 180), re-executions 1, violations 0
}
