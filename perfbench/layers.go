package main

import (
	"bytes"
	"time"

	"ftsched/internal/appio"
	"ftsched/internal/apps"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
	"ftsched/internal/sim"
)

// layerMicro times the scenario sampler and the compiled dispatcher
// directly, in blocks, over scenarios sampled for app with 0..k faults,
// and records each block as a batch span. A first untimed block fills the
// scenario buffers.
func layerMicro(tr *tracer, parent uint64, app *model.Application, disp *runtime.Dispatcher, seed int64) error {
	const block, blocks = 256, 8
	scs := make([]sim.Scenario, block)
	var rng sim.RNG
	var res runtime.Result
	for b := 0; b <= blocks; b++ {
		s0 := tr.now()
		for i := range scs {
			rng.Reseed(sim.ScenarioSeed(seed, b*block+i))
			if err := sim.SampleRNGInto(&scs[i], app, &rng, i%(app.K()+1), nil); err != nil {
				return err
			}
		}
		s1 := tr.now()
		for i := range scs {
			if err := disp.RunInto(&res, scs[i]); err != nil {
				return err
			}
		}
		s2 := tr.now()
		if b > 0 {
			tr.add(span{Parent: parent, Name: "sim.sample", Start: s0, End: s1, N: block})
			tr.add(span{Parent: parent, Name: "runtime.cycles", Start: s1, End: s2, N: block})
		}
	}
	return nil
}

// sweep exercises every layer once on small inputs, so a traced run
// reports each layer even where its workload does not reach it: the
// design pipeline on the cruise controller, a fig8 chaos campaign and a
// short fleet session.
func sweep(cfg config, tr *tracer) error {
	var cc bytes.Buffer
	if err := appio.EncodeApplication(&cc, apps.CruiseController()); err != nil {
		return err
	}
	if _, _, err := designPipeline(cc.Bytes(), cfg.workers, cfg.seed, tr); err != nil {
		return err
	}
	tree, _, err := synthCompile(apps.Fig8(), cfg.workers, tr)
	if err != nil {
		return err
	}
	if _, err := runChaos(tree, cfg.seed, evalChaos, cfg.workers, tr); err != nil {
		return err
	}
	fb, err := setupFleet(config{seed: cfg.seed, workers: cfg.workers, tiny: true}, tr)
	if err != nil {
		return err
	}
	defer fb.close()
	if _, err := fb.run(300*time.Millisecond, tr); err != nil {
		return err
	}
	return fb.check()
}

// perLayer computes the per-layer metrics of a traced run, where every
// engine ran with the given worker count. Each layer is
// read from the workload's own traced pass when the pass reached it (its
// probe span is present), otherwise from the sweep. The trace.* metrics
// are the tracing overhead: traced minus untraced end-to-end figures.
func perLayer(main, sw view, base, traced figures, workers int) map[string]metric {
	pick := func(probe string) view {
		if main.has(probe) {
			return main
		}
		return sw
	}
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }

	c := pick("core.ftqs")
	put("core.ftqs_ms", "ms", median(c.durs("core.ftqs", time.Millisecond)))
	put("core.worker_util", "ratio", ratio(c.count(obs.FTQSWorkerBusyNanos), c.total("core.ftqs")*float64(workers)))
	put("core.memo_hit_ratio", "ratio", hitRatio(c, obs.FTQSMemoHits, obs.FTQSMemoMisses))
	put("core.prefetch_hit_ratio", "ratio", hitRatio(c, obs.FTQSPrefetchHits, obs.FTQSPrefetchMisses))
	put("core.nodes_expanded", "count", c.count(obs.FTQSNodesExpanded))
	put("core.candidates_kept_ratio", "ratio", hitRatio(c, obs.FTQSCandidatesKept, obs.FTQSCandidatesRejected))

	a := pick("appio.encode_tree")
	put("appio.tree_encode_us", "us", median(a.durs("appio.encode_tree", time.Microsecond)))
	put("appio.tree_decode_us", "us", median(a.durs("appio.decode_tree", time.Microsecond)))
	put("appio.tree_bytes", "bytes", median(sizes(a.byName["appio.encode_tree"], false)))
	put("appio.app_decode_us", "us", median(a.durs("appio.decode_app", time.Microsecond)))

	r := pick("runtime.cycles")
	cycle := r.perOp("runtime.cycles")
	put("runtime.compile_us", "us", median(r.durs("runtime.compile", time.Microsecond)))
	put("runtime.cycle_ns", "ns", cycle)

	s := pick("sim.mc")
	sample := s.perOp("sim.sample")
	put("sim.sample_ns", "ns", sample)
	put("sim.mc_self_ns_per_scen", "ns", s.perOp("sim.mc")*float64(workers)-s.perOp("runtime.cycles")-sample)
	put("sim.scenarios", "count", s.ops("sim.mc"))

	ce := pick("certify")
	scen, pruned := ce.sum("certify.scenarios"), ce.sum("certify.patterns_pruned")
	put("certify.ms", "ms", median(ce.durs("certify", time.Millisecond)))
	put("certify.scen_per_s", "1/s", ratio(scen, ce.total("certify")/1e9))
	put("certify.scenarios", "count", scen)
	put("certify.pruned_ratio", "ratio", ratio(pruned, ce.sum("certify.patterns")+pruned))
	put("certify.bisection_runs", "count", ce.sum("certify.bisection_runs"))

	ch := pick("chaos")
	put("chaos.ns_per_cycle", "ns", ch.perOp("chaos"))
	put("chaos.injection_ratio", "ratio", ratio(ch.sum("chaos.injected"), ch.ops("chaos")))

	w := pick("client.dispatch")
	put("serveapi.req_bytes", "bytes", median(sizes(w.byName["http/v1/dispatch"], true)))
	put("serveapi.resp_bytes", "bytes", median(sizes(w.byName["http/v1/dispatch"], false)))
	put("serveapi.decode_dispatch_us", "us", w.perOp("serveapi.decode_dispatch")/1e3)
	put("serveapi.encode_dispatch_us", "us", w.perOp("serveapi.encode_dispatch")/1e3)
	handler := w.durs("serve/v1/dispatch", time.Microsecond)
	put("serve.handler_p50_us", "us", median(handler))
	put("serve.handler_p99_us", "us", quantile(handler, 0.99))
	put("serve.cache_hit_ratio", "ratio", hitRatio(w, obs.ServeCacheHits, obs.ServeCacheMisses))
	put("serve.compile_ms", "ms", median(w.samples["serve.compile_ms"]))
	put("client.self_us", "us", median(w.selfs("client.dispatch", time.Microsecond)))
	put("client.transport_us", "us", median(w.selfs("http/v1/dispatch", time.Microsecond)))
	put("client.attempts_per_request", "ratio", ratio(w.count(obs.ClientAttempts), w.count(obs.ClientRequests)))
	put("client.retries", "count", w.count(obs.ClientRetries))
	call := median(w.durs("client.dispatch", time.Microsecond))
	put("wire.dispatch_p50_us", "us", call)
	put("wire.parts_p50_sum_us", "us", call*(1-wireGap(w)))
	put("wire.gap_pct", "%", 100*wireGap(w))
	put("wire.eval_p50_ms", "ms", median(w.durs("client.eval", time.Millisecond)))

	put("trace.work_per_s_delta", "1/s", traced.workPerS-base.workPerS)
	put("trace.work_p50_ms_delta", "ms", traced.workP50-base.workP50)
	put("trace.work_tail_ms_delta", "ms", traced.workTail-base.workTail)
	put("trace.side_p50_ms_delta", "ms", traced.sideP50-base.sideP50)
	return out
}

// wireGap is the share of the median client-observed dispatch latency
// that the medians of client self time, transport self time and handler
// time do not account for.
func wireGap(v view) float64 {
	call := median(v.durs("client.dispatch", time.Microsecond))
	parts := median(v.selfs("client.dispatch", time.Microsecond)) +
		median(v.selfs("http/v1/dispatch", time.Microsecond)) +
		median(v.durs("serve/v1/dispatch", time.Microsecond))
	return ratio(call-parts, call)
}

func hitRatio(v view, hit, miss obs.Counter) float64 {
	return ratio(v.count(hit), v.count(hit)+v.count(miss))
}

// sizes lists the In (in) or Out byte counts of spans.
func sizes(spans []span, in bool) []float64 {
	var out []float64
	for _, s := range spans {
		if in {
			out = append(out, float64(s.In))
		} else {
			out = append(out, float64(s.Out))
		}
	}
	return out
}
