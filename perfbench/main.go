// Command perfbench is the repository benchmark. It runs one of three
// workloads through the public functions of the engines, checks that
// their outputs are correct, and prints one JSON result line:
//
//   - design: paper §6 applications from JSON to a certified, evaluated
//     quasi-static tree (appio, core, runtime, certify, sim);
//   - evaluate: long Monte-Carlo passes under the three recovery models
//     and a mapped platform, plus chaos campaigns (sim, runtime, chaos);
//   - fleet: closed-loop devices calling an in-process ftserved over
//     loopback HTTP (client, serveapi, serve, runtime).
//
// Without tracing the result holds the end-to-end metrics. With --trace 1
// the run measures half its time untraced and half traced, and the result
// holds the per-layer metrics, the fleet wire breakdown and the tracing
// overhead (traced minus untraced end-to-end figures). Spans are kept in
// memory and written under the output directory when the run ends.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload design --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --smoke
//
// --smoke runs every workload of BENCHMARK.json at a tiny size, traced and
// untraced, and fails unless each emits exactly the metrics and units the
// file lists.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"
)

// setupReps is how often a run builds its inputs; setup_s is the median.
const setupReps = 3

// config is what a workload's setup receives: the workload seed, the
// thread budget and whether to run at smoke size.
type config struct {
	seed    int64
	workers int
	tiny    bool
}

// figures are one measured pass's end-to-end numbers. What "work" and
// "side" mean is workload-specific (see each workload's setup).
type figures struct {
	workPerS, workP50, workTail, sideP50 float64
	attempted, failed                    int64
}

// bench is a set-up workload.
type bench interface {
	// run measures for about d. A non-nil tracer records spans and hands
	// its sink to every engine the pass calls.
	run(d time.Duration, tr *tracer) (figures, error)
	// check verifies output properties gathered during the passes; it runs
	// outside every timed window.
	check() error
	close()
}

type workload struct {
	name  string
	setup func(cfg config, tr *tracer) (bench, error)
}

var workloads = []workload{
	{"design", setupDesign},
	{"evaluate", setupEvaluate},
	{"fleet", setupFleet},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: design, evaluate or fleet")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "measured time of the run")
		traceOn = flag.Int("trace", 0, "1 = per-layer run (half untraced, half traced)")
		out     = flag.String("out", ".bench_build", "directory for traces and run records")
		smoke   = flag.Bool("smoke", false, "check every BENCHMARK.json metric is emitted, at tiny size")
	)
	flag.Parse()
	if *smoke {
		if err := runSmoke("BENCHMARK.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench smoke:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "perfbench smoke: ok")
		return
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload design|evaluate|fleet, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, workers: goruntime.GOMAXPROCS(0)}
	res, tr, err := measure(w, cfg, time.Duration(*seconds*float64(time.Second)), *traceOn == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	meta := runMeta(w.name, *seed, *traceOn)
	fmt.Fprintf(os.Stderr, "perfbench: %s\n", mustJSON(meta))
	if err := record(*out, meta, res, tr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing run record:", err)
		os.Exit(1)
	}
	fmt.Println(mustJSON(res))
	if !res.Correct {
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// measure sets the workload up setupReps times, then measures it. An
// untraced run reports the end-to-end metrics; a traced run measures d/2
// untraced and d/2 traced and reports the per-layer metrics.
func measure(w workload, cfg config, d time.Duration, traced bool) (result, *tracer, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	reps := setupReps
	if cfg.tiny {
		reps = 1
	}
	var b bench
	var setups []float64
	for i := 0; i < reps; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		nb, err := w.setup(cfg, tr)
		if err != nil {
			return result{}, nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b = nb
	}
	defer b.close()

	res := result{}
	if !traced {
		fig, err := b.run(d, nil)
		if err != nil {
			return result{}, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res.Attempted, res.Failed = fig.attempted, fig.failed
		res.Metrics = endToEnd(fig, median(setups), heldMB())
	} else {
		base, err := b.run(d/2, nil)
		if err != nil {
			return result{}, nil, fmt.Errorf("%s untraced half: %w", w.name, err)
		}
		fig, err := b.run(d/2, tr)
		if err != nil {
			return result{}, nil, fmt.Errorf("%s traced half: %w", w.name, err)
		}
		sw := newTracer()
		if err := sweep(cfg, sw); err != nil {
			return result{}, nil, fmt.Errorf("layer sweep: %w", err)
		}
		res.Attempted = base.attempted + fig.attempted
		res.Failed = base.failed + fig.failed
		res.Metrics = perLayer(tr.view(), sw.view(), base, fig, cfg.workers)
	}
	if err := b.check(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s check failed: %v\n", w.name, err)
		return res, tr, nil
	}
	res.Correct = true
	return res, tr, nil
}

func endToEnd(f figures, setupS, memMB float64) map[string]metric {
	return map[string]metric{
		"setup_s":      {setupS, "s"},
		"mem_mb":       {memMB, "MB"},
		"work_per_s":   {f.workPerS, "1/s"},
		"work_p50_ms":  {f.workP50, "ms"},
		"work_tail_ms": {f.workTail, "ms"},
		"side_p50_ms":  {f.sideP50, "ms"},
	}
}

// heldMB is the memory the Go runtime still holds from the OS once garbage
// is collected and returned: the footprint of the set-up workload. Peak
// resident size would also count garbage not yet collected, which moves by
// a third between runs with where collection lands in an allocation burst.
func heldMB() float64 {
	debug.FreeOSMemory()
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// runMeta identifies a result: host, cores, Go version, the commit when
// the checkout is a git repository and in any case the digest of the
// sources it was built from, the seed and the exact command.
func runMeta(name string, seed int64, traced int) map[string]any {
	host, _ := os.Hostname()
	return map[string]any{
		"workload":      name,
		"seed":          seed,
		"trace":         traced,
		"host":          host,
		"nproc":         goruntime.NumCPU(),
		"gomaxprocs":    goruntime.GOMAXPROCS(0),
		"go":            goruntime.Version(),
		"os_arch":       goruntime.GOOS + "/" + goruntime.GOARCH,
		"commit":        gitCommit("."),
		"source_sha256": sourceDigest("."),
		"command":       os.Args,
		"time":          time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit reads the checked-out commit from root/.git without running
// git; it is empty outside a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head)) // detached HEAD
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return ""
}

// sourceDigest hashes every Go source and module file under root, skipping
// hidden directories such as build output.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// record writes the run record (identity plus result) and, for a traced
// run, every span.
func record(dir string, meta map[string]any, res result, tr *tracer) error {
	base := fmt.Sprintf("%s-seed%d-trace%d", meta["workload"], meta["seed"], meta["trace"])
	rec := map[string]any{"run": meta, "result": res}
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "results", base+".json"), []byte(mustJSON(rec)+"\n"), 0o644); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	return tr.write(filepath.Join(dir, "traces", base+".jsonl"), meta)
}

// mustJSON encodes v, mapping non-finite metric values (a latency quantile
// that reaches a failed request is +Inf) to the largest float.
func mustJSON(v any) string {
	if r, ok := v.(result); ok {
		for k, m := range r.Metrics {
			if math.IsInf(m.Value, 1) {
				m.Value = math.MaxFloat64
			} else if math.IsNaN(m.Value) || math.IsInf(m.Value, -1) {
				m.Value = -math.MaxFloat64
			}
			r.Metrics[k] = m
		}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value passed here is plain data
	}
	return string(b)
}

// runSmoke runs each workload of the benchmark file at tiny size, traced
// and untraced, and checks the emitted metric names and units against the
// file.
func runSmoke(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.Workloads) != len(workloads) {
		return fmt.Errorf("%s lists %d workloads, the benchmark has %d", path, len(spec.Workloads), len(workloads))
	}
	var errs []error
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			errs = append(errs, fmt.Errorf("workload %q is not implemented", sw.Name))
			continue
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			cfg := config{seed: 1, workers: goruntime.NumCPU(), tiny: true}
			res, _, err := measure(w, cfg, time.Second, traced)
			if err != nil {
				errs = append(errs, fmt.Errorf("%s trace=%t: %w", w.name, traced, err))
				continue
			}
			if !res.Correct {
				errs = append(errs, fmt.Errorf("%s trace=%t: correctness check failed", w.name, traced))
			}
			got := res.Metrics
			for _, m := range want {
				g, ok := got[m.Name]
				switch {
				case !ok:
					errs = append(errs, fmt.Errorf("%s trace=%t: metric %s not emitted", w.name, traced, m.Name))
				case g.Unit != m.Unit:
					errs = append(errs, fmt.Errorf("%s trace=%t: metric %s has unit %q, want %q", w.name, traced, m.Name, g.Unit, m.Unit))
				case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
					errs = append(errs, fmt.Errorf("%s trace=%t: metric %s is %v", w.name, traced, m.Name, g.Value))
				}
				delete(got, m.Name)
			}
			for n := range got {
				errs = append(errs, fmt.Errorf("%s trace=%t: metric %s is not in %s", w.name, traced, n, path))
			}
			fmt.Fprintf(os.Stderr, "perfbench smoke: %s trace=%t: %d metrics\n", w.name, traced, len(want))
		}
	}
	return errors.Join(errs...)
}
