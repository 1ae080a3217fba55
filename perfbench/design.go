package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ftsched/internal/appio"
	"ftsched/internal/apps"
	"ftsched/internal/certify"
	"ftsched/internal/core"
	"ftsched/internal/gen"
	"ftsched/internal/model"
	"ftsched/internal/runtime"
	"ftsched/internal/sim"
)

// The design workload takes a fixed set of applications from JSON to a
// certified, evaluated tree, one application after another. The set is
// the cruise controller plus paper §6 applications generated with fixed
// seeds, so every workload seed measures the same synthesis and certify
// work; the workload seed drives the Monte-Carlo streams. Work is one
// application through the whole pipeline, side is its certify step; the
// tail is the 90th percentile of the per-round mean.
const (
	designM       = 16
	designMC      = 4096
	designBudget  = 1 << 20 // fixed, so an app's certify mode never depends on the default
	designAppSeed = 2008
)

var designSizes = []int{20, 20, 30, 30, 40}

type designBench struct {
	cfg  config
	apps [][]byte // application JSON
	errs []error
}

func setupDesign(cfg config, _ *tracer) (bench, error) {
	sizes := designSizes
	if cfg.tiny {
		sizes = sizes[:1]
	}
	list := []*model.Application{apps.CruiseController()}
	for i, n := range sizes {
		app, err := gen.Generate(rand.New(rand.NewSource(designAppSeed+int64(i))), gen.Default(n))
		if err != nil {
			return nil, fmt.Errorf("generating app %d: %w", i, err)
		}
		list = append(list, app)
	}
	b := &designBench{cfg: cfg}
	for _, app := range list {
		var buf bytes.Buffer
		if err := appio.EncodeApplication(&buf, app); err != nil {
			return nil, err
		}
		b.apps = append(b.apps, buf.Bytes())
	}
	// One untimed pass over the cruise controller pays the process's lazy
	// start-up costs before any round is measured.
	if _, _, err := designPipeline(b.apps[0], cfg.workers, cfg.seed, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

// run takes the whole set through the pipeline in rounds. The latencies
// are per-round means over the set, so every figure weighs the same mix of
// small and large applications.
func (b *designBench) run(d time.Duration, tr *tracer) (figures, error) {
	var fig figures
	var appMS, certMS []float64
	var totalNS, apps int64
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < d; round++ {
		var roundNS, certNS, n int64
		for i, js := range b.apps {
			seed := sim.ScenarioSeed(b.cfg.seed, round*len(b.apps)+i)
			fig.attempted++
			total, cert, err := designPipeline(js, b.cfg.workers, seed, tr)
			if err != nil {
				fig.failed++
				b.errs = append(b.errs, err)
				continue
			}
			roundNS += total
			certNS += cert
			n++
		}
		totalNS += roundNS
		apps += n
		appMS = append(appMS, ratio(float64(roundNS), float64(n))/1e6)
		certMS = append(certMS, ratio(float64(certNS), float64(n))/1e6)
	}
	fig.workPerS = ratio(float64(apps), float64(totalNS)/1e9)
	fig.workP50 = median(appMS)
	fig.workTail = quantile(appMS, 0.9)
	fig.sideP50 = median(certMS)
	return fig, nil
}

// designPipeline takes one application JSON through decode, FTQS,
// verification, compact tree encode/decode, dispatcher compile, certify
// and a short Monte-Carlo run. It returns the pipeline's wall time and the
// certify step's, both excluding the correctness checks, which run after
// the timed steps. When tracing it also times the sampler and dispatcher
// directly on the application.
func designPipeline(js []byte, workers int, seed int64, tr *tracer) (total, cert int64, err error) {
	root, end := tr.begin("design.app")
	defer end()
	var (
		app   *model.Application
		tree  *core.Tree
		tree2 *core.Tree
		enc   bytes.Buffer
		disp  *runtime.Dispatcher
		rep   certify.Report
		stats sim.MCStats
		ns    int64
	)
	fail := func(step string, err error) (int64, int64, error) {
		name := "?"
		if app != nil {
			name = app.Name()
		}
		return 0, 0, fmt.Errorf("design app %s: %s: %w", name, step, err)
	}
	steps := []struct {
		name string
		fn   func(s *span) error
	}{
		{"appio.decode_app", func(*span) (err error) {
			app, err = appio.DecodeApplication(bytes.NewReader(js))
			return err
		}},
		{"core.ftqs", func(*span) (err error) {
			tree, err = core.FTQS(app, core.FTQSOptions{M: designM, Workers: workers, Sink: tr.sink()})
			return err
		}},
		{"core.verify", func(*span) error { return core.VerifyTree(tree) }},
		{"appio.encode_tree", func(s *span) error {
			err := appio.EncodeTreeCompact(&enc, tree)
			s.Out = int64(enc.Len())
			return err
		}},
		{"appio.decode_tree", func(*span) (err error) {
			tree2, err = appio.DecodeTree(bytes.NewReader(enc.Bytes()), app)
			return err
		}},
		{"runtime.compile", func(*span) (err error) {
			disp, err = runtime.NewDispatcher(tree2)
			return err
		}},
		{"certify", func(*span) (err error) {
			rep, err = certify.Certify(tree2, certify.Config{Workers: workers, Budget: designBudget})
			return err
		}},
		{"sim.mc", func(s *span) (err error) {
			s.N = designMC
			stats, err = sim.MonteCarlo(tree2, sim.MCConfig{
				Scenarios: designMC, Faults: app.K(), Seed: seed, Workers: workers, Dispatcher: disp,
			})
			return err
		}},
	}
	for _, st := range steps {
		ns, err = tr.timed(root, st.name, st.fn)
		if err != nil {
			return fail(st.name, err)
		}
		total += ns
		if st.name == "certify" {
			cert = ns
		}
	}
	tr.sample("certify.scenarios", float64(rep.Scenarios))
	tr.sample("certify.bisection_runs", float64(rep.BisectionRuns))
	tr.sample("certify.patterns", float64(rep.Patterns))
	tr.sample("certify.patterns_pruned", float64(rep.PatternsPruned))

	if stats.HardViolations != 0 {
		return fail("monte-carlo", fmt.Errorf("%d scenarios missed a hard deadline", stats.HardViolations))
	}
	var again bytes.Buffer
	if err := appio.EncodeTreeCompact(&again, tree2); err != nil {
		return fail("re-encode", err)
	}
	if !bytes.Equal(again.Bytes(), enc.Bytes()) {
		return fail("re-encode", errors.New("decoded tree does not re-encode byte-identically"))
	}
	if tr != nil {
		if err := layerMicro(tr, root, app, disp, seed); err != nil {
			return fail("sampler/dispatcher timing", err)
		}
	}
	return total, cert, nil
}

func (b *designBench) check() error { return errors.Join(b.errs...) }

func (b *designBench) close() {}
