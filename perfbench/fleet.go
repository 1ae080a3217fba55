package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ftsched/client"
	"ftsched/internal/appio"
	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/gen"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
	"ftsched/internal/serve"
	"ftsched/internal/serveapi"
	"ftsched/internal/sim"
)

// The fleet workload serves the cruise controller from an in-process
// ftserved on loopback to closed-loop devices. Each device owns one
// keep-alive connection and waits for each reply before sending the next
// request. Its deterministic mix is mostly 64-cycle dispatch
// batches against the cached tree, every 64th request a 4096-scenario
// evaluation, and every 512th a synthesis of an application the server
// has not seen. The misses are one fixed application under fresh names, so
// each costs the same synthesis work on every run and the miss median is
// not a mix of different apps. Work is
// one dispatch request (throughput in dispatched cycles), side is one
// synthesis miss.
const (
	fleetM = 16
	// fleetDevices is one: with a device per core the saturated loop flips
	// every half second or so between a lockstep and an interleaved
	// regime, which moves the dispatch median between 1.2 and 1.9 ms from
	// run to run on a two-core host. One device measures the service path
	// without that regime noise; the server still runs evaluations and
	// synthesis on every core.
	fleetDevices    = 1
	fleetBatch      = 64
	fleetPool       = 8 // distinct batches per device
	fleetEvalEvery  = 64
	fleetEvalScen   = 4096
	fleetEvalSeeds  = 4
	fleetMissEvery  = 512
	fleetMissFirst  = 16 // request index of device 0's first miss
	fleetMissN      = 20
	fleetMissPool   = 256
	fleetMissSeed   = 1008
	fleetCheckEvery = 64
	fleetWarmup     = 8
	fleetCapture    = 8 // dispatch bodies kept for codec timing
	fleetWindow     = 5 * time.Second
	// fleetTailQ is the dispatch quantile reported as the tail. A window's
	// p99 rests on its few dozen slowest dispatches, which on a shared
	// two-core host are those a stalled vCPU delayed: across ten runs of
	// the same code its spread reached half its median. p90 follows the
	// service path, like the p90 tails of the other workloads.
	fleetTailQ = 0.90

	// spanHeader carries the round-trip span ID to the handler middleware;
	// only the benchmark reads it.
	spanHeader = "X-Perfbench-Span"
	// wireGapLimit bounds |gap| between the median client-observed dispatch
	// latency and the sum of the median client, transport and handler self
	// times, as a share of the former.
	wireGapLimit = 0.25
)

type spanKey struct{}

type fleetBench struct {
	cfg     config
	handler http.Handler
	srvM    *obs.Metrics
	httpSrv *http.Server
	served  chan struct{}
	active  atomic.Pointer[tracer] // handler middleware records into it
	base    string
	treeKey string
	tree    *core.Tree
	disp    *runtime.Dispatcher
	devices []*device
	capture bodyCapture

	errs  []error
	evals []evalResult
}

// evalResult is one remote evaluation, kept for the check against the
// in-process engine.
type evalResult struct {
	seed  int64
	stats serveapi.MCStatsJSON
}

type device struct {
	id        int
	transport *http.Transport
	plain     *client.Client
	batches   []serveapi.DispatchRequest
	want      [][]serveapi.CycleResultJSON
	misses    [][]byte
	next      int // request counter, continued across passes
	nextMiss  int
}

func setupFleet(cfg config, tr *tracer) (bench, error) {
	b := &fleetBench{cfg: cfg, srvM: obs.NewMetrics(), served: make(chan struct{})}
	b.handler = serve.New(serve.Config{Metrics: b.srvM, MaxWorkers: cfg.workers}).Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.base = "http://" + ln.Addr().String()
	b.httpSrv = &http.Server{Handler: b}
	go func() {
		defer close(b.served)
		_ = b.httpSrv.Serve(ln) // returns ErrServerClosed on close
	}()
	if err := b.init(tr); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *fleetBench) init(tr *tracer) error {
	var ccJSON bytes.Buffer
	if err := appio.EncodeApplication(&ccJSON, apps.CruiseController()); err != nil {
		return err
	}
	var app *model.Application
	if _, err := tr.timed(0, "appio.decode_app", func(*span) (err error) {
		app, err = appio.DecodeApplication(bytes.NewReader(ccJSON.Bytes()))
		return err
	}); err != nil {
		return err
	}
	var err error
	if b.tree, b.disp, err = synthCompile(app, b.cfg.workers, tr); err != nil {
		return err
	}
	var local bytes.Buffer
	if _, err := tr.timed(0, "appio.encode_tree", func(s *span) error {
		err := appio.EncodeTreeCompact(&local, b.tree)
		s.Out = int64(local.Len())
		return err
	}); err != nil {
		return err
	}

	miss, err := missApp()
	if err != nil {
		return err
	}
	for d := 0; d < fleetDevices; d++ {
		dv, err := b.newDevice(d, app, miss)
		if err != nil {
			return err
		}
		b.devices = append(b.devices, dv)
	}

	ctx := context.Background()
	syn, err := b.devices[0].plain.Synthesize(ctx, serveapi.SynthesizeRequest{
		App: ccJSON.Bytes(), Options: serveapi.FTQSOptionsJSON{M: fleetM}, IncludeTree: true,
	})
	if err != nil {
		return fmt.Errorf("synthesize: %w", err)
	}
	b.treeKey = syn.TreeKey
	for _, dv := range b.devices {
		for j := range dv.batches {
			dv.batches[j].TreeKey = b.treeKey
		}
	}
	tr.sample("serve.compile_ms", syn.CompileMillis)
	var served *core.Tree
	if _, err := tr.timed(0, "appio.decode_tree", func(*span) (err error) {
		served, err = appio.DecodeTree(bytes.NewReader(syn.Tree), app)
		return err
	}); err != nil {
		return fmt.Errorf("decoding the served tree: %w", err)
	}
	var again bytes.Buffer
	if err := appio.EncodeTreeCompact(&again, served); err != nil {
		return err
	}
	if !bytes.Equal(again.Bytes(), local.Bytes()) {
		return errors.New("the served tree differs from the tree synthesised in process")
	}

	// Warm up every connection and the server's per-request paths.
	for _, dv := range b.devices {
		for i := 0; i < fleetWarmup; i++ {
			if _, err := dv.plain.Dispatch(ctx, dv.batches[i%fleetPool]); err != nil {
				return fmt.Errorf("warm-up dispatch: %w", err)
			}
		}
		if _, err := dv.plain.Eval(ctx, b.evalRequest(0)); err != nil {
			return fmt.Errorf("warm-up eval: %w", err)
		}
	}
	return nil
}

// missApp is the application synthesis misses submit under fresh names,
// as its top-level JSON members.
func missApp() (map[string]json.RawMessage, error) {
	app, err := gen.Generate(rand.New(rand.NewSource(fleetMissSeed)), gen.Default(fleetMissN))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := appio.EncodeApplication(&buf, app); err != nil {
		return nil, err
	}
	var fields map[string]json.RawMessage
	err = json.Unmarshal(buf.Bytes(), &fields)
	return fields, err
}

// newDevice builds one device: its connection, its deterministic batches
// with their in-process dispatch results, and its pool of unseen apps.
func (b *fleetBench) newDevice(d int, app *model.Application, miss map[string]json.RawMessage) (*device, error) {
	dv := &device{id: d, transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	dv.plain = client.New(b.base,
		client.WithHTTPClient(&http.Client{Transport: dv.transport, Timeout: time.Minute}),
		client.WithRetryPolicy(client.DefaultRetryPolicy()))
	var rng sim.RNG
	var sc sim.Scenario
	var res runtime.Result
	for j := 0; j < fleetPool; j++ {
		var req serveapi.DispatchRequest
		var want []serveapi.CycleResultJSON
		for i := 0; i < fleetBatch; i++ {
			rng.Reseed(sim.ScenarioSeed(b.cfg.seed, (d*fleetPool+j)*fleetBatch+i))
			if err := sim.SampleRNGInto(&sc, app, &rng, i%(app.K()+1), nil); err != nil {
				return nil, err
			}
			cyc := serveapi.CycleJSONOf(sim.Scenario{
				Durations: append([]model.Time(nil), sc.Durations...),
				FaultsAt:  append([]int(nil), sc.FaultsAt...),
				NFaults:   sc.NFaults,
			})
			req.Cycles = append(req.Cycles, cyc)
			if err := b.disp.RunInto(&res, cyc.Scenario()); err != nil {
				return nil, err
			}
			want = append(want, serveapi.ResultJSON(&res))
		}
		// Compare in wire form: what the client decodes.
		data, err := json.Marshal(want)
		if err != nil {
			return nil, err
		}
		want = nil
		if err := json.Unmarshal(data, &want); err != nil {
			return nil, err
		}
		dv.batches = append(dv.batches, req)
		dv.want = append(dv.want, want)
	}
	pool := fleetMissPool
	if b.cfg.tiny {
		pool = 2
	}
	for j := 0; j < pool; j++ {
		name, _ := json.Marshal(fmt.Sprintf("miss-seed%d-dev%d-%d", b.cfg.seed, d, j))
		miss["name"] = name
		data, err := json.Marshal(miss)
		if err != nil {
			return nil, err
		}
		dv.misses = append(dv.misses, data)
	}
	return dv, nil
}

func (b *fleetBench) evalRequest(q int) serveapi.EvalRequest {
	return serveapi.EvalRequest{
		TreeRef: serveapi.TreeRef{TreeKey: b.treeKey},
		Config: serveapi.MCConfigJSON{
			Scenarios: fleetEvalScen, Faults: 1, Workers: b.cfg.workers,
			Seed: sim.ScenarioSeed(b.cfg.seed, 1<<20+q),
		},
	}
}

// ServeHTTP is the benchmark's handler middleware: while a traced pass is
// active it records one span per request, under the round-trip span named
// in spanHeader.
func (b *fleetBench) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := b.active.Load()
	if tr == nil {
		b.handler.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	s := span{Parent: parent, Name: "serve" + r.URL.Path, Start: tr.now()}
	b.handler.ServeHTTP(w, r)
	s.End = tr.now()
	tr.add(s)
}

type devStats struct {
	dispatchMS, missMS []float64
	okDispatch         int64
	attempted, failed  int64
	errs               []error
	evals              []evalResult
}

// run drives the devices in windows of about fleetWindow and reports the
// median window: a stall of the host during one window then moves no
// figure. Misses are rare, so their median pools all windows.
func (b *fleetBench) run(d time.Duration, tr *tracer) (figures, error) {
	if tr != nil {
		b.srvM.Reset()
		b.active.Store(tr)
	}
	var fig figures
	var perS, p50, p90, missMS []float64
	n := max(1, int(d/fleetWindow))
	for w := 0; w < n; w++ {
		st, secs := b.window(d/time.Duration(n), tr)
		perS = append(perS, float64(st.okDispatch*fleetBatch)/secs)
		p50 = append(p50, median(st.dispatchMS))
		p90 = append(p90, quantile(st.dispatchMS, fleetTailQ))
		missMS = append(missMS, st.missMS...)
		fig.attempted += st.attempted
		fig.failed += st.failed
		b.errs = append(b.errs, st.errs...)
		b.evals = append(b.evals, st.evals...)
	}
	b.active.Store(nil)
	fig.workPerS = median(perS)
	fig.workP50 = median(p50)
	fig.workTail = median(p90)
	fig.sideP50 = median(missMS)

	if tr != nil {
		for c := obs.ServeRequests; c <= obs.ServeDegraded; c++ {
			tr.m.Add(c, b.srvM.Counter(c))
		}
		if err := layerMicro(tr, 0, b.tree.App, b.disp, b.cfg.seed); err != nil {
			return fig, err
		}
		if err := b.capture.time(tr); err != nil {
			return fig, err
		}
		if gap := wireGap(tr.view()); math.Abs(gap) > wireGapLimit {
			b.errs = append(b.errs, fmt.Errorf("wire breakdown: client, transport and handler medians miss the dispatch median by %.1f%%", 100*gap))
		}
	}
	return fig, nil
}

// window drives every device for d and merges their figures; it also
// returns the window's length in seconds.
func (b *fleetBench) window(d time.Duration, tr *tracer) (devStats, float64) {
	stats := make([]devStats, len(b.devices))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, dv := range b.devices {
		wg.Add(1)
		go func(dv *device, st *devStats) {
			defer wg.Done()
			b.drive(dv, st, deadline, tr)
		}(dv, &stats[i])
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	var all devStats
	for _, st := range stats {
		all.dispatchMS = append(all.dispatchMS, st.dispatchMS...)
		all.missMS = append(all.missMS, st.missMS...)
		all.okDispatch += st.okDispatch
		all.attempted += st.attempted
		all.failed += st.failed
		all.errs = append(all.errs, st.errs...)
		all.evals = append(all.evals, st.evals...)
	}
	return all, secs
}

// drive is one closed-loop device: it sends its next request only after
// the previous reply, until the deadline.
func (b *fleetBench) drive(dv *device, st *devStats, deadline time.Time, tr *tracer) {
	c := dv.plain
	if tr != nil {
		c = client.New(b.base,
			client.WithHTTPClient(&http.Client{Transport: &tracingRT{base: dv.transport, tr: tr, capture: &b.capture}, Timeout: time.Minute}),
			client.WithRetryPolicy(client.DefaultRetryPolicy()),
			client.WithMetrics(tr.m))
	}
	ctx := context.Background()
	missAt := (fleetMissFirst + dv.id*fleetMissEvery/len(b.devices)) % fleetMissEvery
	fail := func(what string, err error) {
		st.failed++
		if len(st.errs) < 4 {
			st.errs = append(st.errs, fmt.Errorf("device %d %s: %w", dv.id, what, err))
		}
	}
	for time.Now().Before(deadline) {
		r := dv.next
		dv.next++
		st.attempted++
		switch {
		case r%fleetMissEvery == missAt && dv.nextMiss < len(dv.misses):
			req := serveapi.SynthesizeRequest{App: dv.misses[dv.nextMiss], Options: serveapi.FTQSOptionsJSON{M: fleetM}}
			dv.nextMiss++
			var resp *serveapi.SynthesizeResponse
			ms, err := call(ctx, tr, "synthesize", func(ctx context.Context) (err error) {
				resp, err = c.Synthesize(ctx, req)
				return err
			})
			if err != nil {
				fail("synthesize", err)
				st.missMS = append(st.missMS, math.Inf(1))
				continue
			}
			st.missMS = append(st.missMS, ms)
			tr.sample("serve.compile_ms", resp.CompileMillis)
			if resp.CacheHit {
				st.errs = append(st.errs, fmt.Errorf("device %d: synthesis of an unseen app was a cache hit", dv.id))
			}
		case r%fleetEvalEvery == fleetEvalEvery-1:
			req := b.evalRequest((r / fleetEvalEvery) % fleetEvalSeeds)
			var resp *serveapi.EvalResponse
			_, err := call(ctx, tr, "eval", func(ctx context.Context) (err error) {
				resp, err = c.Eval(ctx, req)
				return err
			})
			if err != nil {
				fail("eval", err)
				continue
			}
			st.evals = append(st.evals, evalResult{req.Config.Seed, resp.Stats})
		default:
			j := r % fleetPool
			req := dv.batches[j]
			var resp *serveapi.DispatchResponse
			ms, err := call(ctx, tr, "dispatch", func(ctx context.Context) (err error) {
				resp, err = c.Dispatch(ctx, req)
				return err
			})
			if err != nil {
				fail("dispatch", err)
				st.dispatchMS = append(st.dispatchMS, math.Inf(1))
				continue
			}
			st.okDispatch++
			st.dispatchMS = append(st.dispatchMS, ms)
			if r%fleetCheckEvery == 0 && (!resp.CacheHit || !reflect.DeepEqual(resp.Results, dv.want[j])) {
				st.errs = append(st.errs, fmt.Errorf("device %d: remote dispatch of batch %d differs from in-process RunInto", dv.id, j))
			}
		}
	}
}

// call times one client call from send to decoded response. When tracing
// it records the call span and hands its ID to the round tripper through
// the context.
func call(ctx context.Context, tr *tracer, endpoint string, fn func(ctx context.Context) error) (float64, error) {
	if tr == nil {
		t0 := time.Now()
		err := fn(ctx)
		return float64(time.Since(t0)) / 1e6, err
	}
	s := span{ID: tr.newID(), Name: "client." + endpoint, Start: tr.now()}
	err := fn(context.WithValue(ctx, spanKey{}, s.ID))
	s.End = tr.now()
	tr.add(s)
	return float64(s.dur()) / 1e6, err
}

// tracingRT records one span per HTTP attempt, from send until the
// response body is read to the end, and tells the handler middleware the
// span's ID in a header.
type tracingRT struct {
	base    http.RoundTripper
	tr      *tracer
	capture *bodyCapture
}

func (t *tracingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(spanKey{}).(uint64)
	s := span{ID: t.tr.newID(), Parent: parent, Name: "http" + req.URL.Path, In: req.ContentLength}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(s.ID, 10))
	dispatch := req.URL.Path == "/v1/dispatch"
	if dispatch {
		t.capture.request(req)
	}
	s.Start = t.tr.now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.End = t.tr.now()
		t.tr.add(s)
		return nil, err
	}
	body := &spanBody{ReadCloser: resp.Body, tr: t.tr, s: s}
	if dispatch && t.capture.wantResponse() {
		body.keep = &bytes.Buffer{}
		body.done = t.capture.response
	}
	resp.Body = body
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	tr   *tracer
	s    span
	keep *bytes.Buffer
	done func([]byte)
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Out += int64(n)
	if b.keep != nil {
		b.keep.Write(p[:n])
	}
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.s.End = b.tr.now()
		b.tr.add(b.s)
		if b.keep != nil {
			b.done(b.keep.Bytes())
		}
	})
}

// bodyCapture keeps the first few dispatch request and response bodies of
// a traced pass, so the codec can be timed on real fleet traffic.
type bodyCapture struct {
	mu    sync.Mutex
	reqs  [][]byte
	resps [][]byte
}

func (c *bodyCapture) request(req *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.reqs) >= fleetCapture || req.GetBody == nil {
		return
	}
	rc, err := req.GetBody()
	if err != nil {
		return
	}
	defer rc.Close()
	if data, err := io.ReadAll(rc); err == nil {
		c.reqs = append(c.reqs, data)
	}
}

func (c *bodyCapture) wantResponse() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.resps) < fleetCapture
}

func (c *bodyCapture) response(data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.resps) < fleetCapture {
		c.resps = append(c.resps, data)
	}
}

// time decodes the captured requests with serveapi and re-encodes the
// captured responses the way the server writes them, recording batch
// spans per body.
func (c *bodyCapture) time(tr *tracer) error {
	const reps = 16
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, body := range c.reqs {
		if _, err := tr.timed(0, "serveapi.decode_dispatch", func(s *span) error {
			s.N = reps
			for i := 0; i < reps; i++ {
				if _, werr := serveapi.DecodeDispatchRequest(body); werr != nil {
					return werr
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	for _, body := range c.resps {
		var resp serveapi.DispatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if _, err := tr.timed(0, "serveapi.encode_dispatch", func(s *span) error {
			s.N = reps
			for i := 0; i < reps; i++ {
				buf.Reset()
				if err := json.NewEncoder(&buf).Encode(&resp); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// check compares every remote evaluation with the in-process Monte-Carlo
// run of the same configuration.
func (b *fleetBench) check() error {
	errs := b.errs
	local := map[int64]serveapi.MCStatsJSON{}
	for q := 0; q < fleetEvalSeeds; q++ {
		cfg := b.evalRequest(q).Config
		stats, err := sim.MonteCarlo(b.tree, sim.MCConfig{
			Scenarios: cfg.Scenarios, Faults: cfg.Faults, Seed: cfg.Seed, Workers: b.cfg.workers,
		})
		if err != nil {
			return errors.Join(append(errs, err)...)
		}
		local[cfg.Seed] = serveapi.StatsJSON(stats)
	}
	for _, e := range b.evals {
		if e.stats != local[e.seed] {
			errs = append(errs, fmt.Errorf("remote eval (seed %d) differs from in-process MonteCarlo", e.seed))
		}
	}
	if len(b.evals) == 0 && !b.cfg.tiny {
		errs = append(errs, errors.New("no evaluation was checked"))
	}
	return errors.Join(errs...)
}

func (b *fleetBench) close() {
	_ = b.httpSrv.Close() // drops loopback connections; nothing to report
	<-b.served
	for _, dv := range b.devices {
		dv.transport.CloseIdleConnections()
	}
}
