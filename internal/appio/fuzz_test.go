package appio

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/runtime"
)

// FuzzDecodeApplication: the decoder must never panic and, when it
// accepts, must produce a validated application that re-encodes and
// re-decodes to an equivalent one.
func FuzzDecodeApplication(f *testing.F) {
	// Seed with the real fixtures and a few near-valid corpus entries.
	for _, app := range []interface{ Name() string }{} {
		_ = app
	}
	var buf bytes.Buffer
	if err := EncodeApplication(&buf, apps.Fig1()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	buf.Reset()
	if err := EncodeApplication(&buf, apps.Fig8()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"name":"x","period":10,"k":0,"mu":1,"processes":[],"edges":[]}`)
	f.Add(`{"name":"x","period":10,"k":1,"mu":1,"processes":[{"name":"A","kind":"hard","bcet":1,"aet":1,"wcet":1,"deadline":5}],"edges":[]}`)
	f.Add(`{"name":"x","period":-1}`)
	f.Add(`not json at all`)
	f.Add(`{"processes":[{"kind":"soft"}]}`)
	// Platform/mapping seeds: a valid heterogeneous pair, then the typed
	// rejections (non-positive/non-finite speed, negative power, mapping
	// without a platform, unknown core and process names, duplicate cores).
	buf.Reset()
	if err := EncodeApplication(&buf, mappedFig1(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	const hdr = `{"name":"x","period":10,"k":1,"mu":1,"processes":[{"name":"A","kind":"hard","bcet":1,"aet":1,"wcet":1,"deadline":5}],"edges":[]`
	f.Add(hdr + `,"platform":[{"name":"lp","speed":1,"powerActive":1,"powerIdle":0.05},{"name":"hp","speed":2,"powerActive":3,"powerIdle":0.15}]}`)
	f.Add(hdr + `,"platform":[{"name":"c","speed":0,"powerActive":1,"powerIdle":0}]}`)
	f.Add(hdr + `,"platform":[{"name":"c","speed":-2,"powerActive":1,"powerIdle":0}]}`)
	f.Add(hdr + `,"platform":[{"name":"c","speed":1,"powerActive":-1,"powerIdle":0}]}`)
	f.Add(hdr + `,"platform":[{"name":"c","speed":1,"powerActive":1,"powerIdle":-0.5}]}`)
	f.Add(hdr + `,"platform":[{"name":"","speed":1,"powerActive":1,"powerIdle":0}]}`)
	f.Add(hdr + `,"platform":[{"name":"c","speed":1,"powerActive":1,"powerIdle":0},{"name":"c","speed":1,"powerActive":1,"powerIdle":0}]}`)
	f.Add(hdr + `,"mapping":[{"proc":"A","core":"c","recovery":"c"}]}`)
	f.Add(hdr + `,"platform":[{"name":"c","speed":1,"powerActive":1,"powerIdle":0}],"mapping":[{"proc":"A","core":"nope","recovery":"c"}]}`)
	f.Add(hdr + `,"platform":[{"name":"c","speed":1,"powerActive":1,"powerIdle":0}],"mapping":[{"proc":"NOPE","core":"c","recovery":"c"}]}`)
	// Recovery-model seeds: one valid document per model, then the
	// adversarial rejections (negative latency, zero spacing, overhead at
	// spacing, overflow-scale rollback, unknown model, muZero conflicts).
	f.Add(hdr + `,"recovery":{"model":"restart","latency":25}}`)
	f.Add(hdr + `,"recovery":{"model":"checkpoint","spacing":40,"overhead":3,"rollback":7}}`)
	f.Add(hdr + `,"recovery":{"model":"re-execution"}}`)
	f.Add(hdr + `,"recovery":{"model":"restart","latency":-1}}`)
	f.Add(hdr + `,"recovery":{"model":"checkpoint","spacing":0}}`)
	f.Add(hdr + `,"recovery":{"model":"checkpoint","spacing":10,"overhead":10}}`)
	f.Add(hdr + `,"recovery":{"model":"checkpoint","spacing":10,"overhead":1,"rollback":1125899906842624}}`)
	f.Add(hdr + `,"recovery":{"model":"martian"}}`)
	f.Add(`{"name":"x","period":10,"k":1,"mu":1,"processes":[{"name":"A","kind":"hard","bcet":1,"aet":1,"wcet":1,"deadline":5,"muZero":true}],"edges":[]}`)
	f.Add(`{"name":"x","period":10,"k":1,"mu":1,"processes":[{"name":"A","kind":"hard","bcet":1,"aet":1,"wcet":1,"deadline":5,"mu":3,"muZero":true}],"edges":[]}`)

	f.Fuzz(func(t *testing.T, input string) {
		app, err := DecodeApplication(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted applications are fully validated and reusable.
		if app.N() == 0 {
			t.Fatal("decoder accepted an empty application")
		}
		var out bytes.Buffer
		if err := EncodeApplication(&out, app); err != nil {
			t.Fatalf("accepted application does not re-encode: %v", err)
		}
		back, err := DecodeApplication(&out)
		if err != nil {
			t.Fatalf("re-encoded application does not decode: %v", err)
		}
		if back.N() != app.N() || back.Period() != app.Period() || back.K() != app.K() {
			t.Fatal("round trip changed the application")
		}
		if back.Recovery() != app.Recovery() {
			t.Fatalf("round trip changed the recovery model: %v -> %v", app.Recovery(), back.Recovery())
		}
	})
}

// FuzzDecodeCounterexample: the counterexample decoder — the ftsim -replay
// input path — must never panic, reject with typed position-carrying
// errors only, and round-trip every accepted record (violation events
// included) bit-identically. Seeds include a chaos-style record carrying
// the full envelope event taxonomy.
func FuzzDecodeCounterexample(f *testing.F) {
	app := apps.Fig8()
	sc := runtime.Scenario{
		Durations: []model.Time{20, 40, 80, 30, 20},
		FaultsAt:  []int{0, 2, 1, 0, 0},
		NFaults:   3,
	}
	ce := NewCounterexample(app, sc, app.HardIDs()[1], 244, []int{0, 1})
	ce.Violations = NewViolationRecords(app, []runtime.ViolationEvent{
		{Kind: runtime.BudgetExhausted, Proc: 1, At: 45, Magnitude: 1},
		{Kind: runtime.WCETOverrun, Proc: 2, At: 125, Magnitude: 40},
		{Kind: runtime.ExtraFault, Proc: 2, At: 215, Magnitude: 1},
		{Kind: runtime.TimeRegression, Proc: 3, At: 100, Magnitude: 5},
	})
	var buf bytes.Buffer
	if err := EncodeCounterexample(&buf, ce); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"format":"ftsched-counterexample/v1","app":"paper-fig8","nFaults":0,"durations":{}}`)
	f.Add(`{"format":"ftsched-counterexample/v1","app":"paper-fig8","nFaults":0,"durations":{},"violations":[{"kind":"wcet-overrun","proc":"P2","at":10,"magnitude":3}]}`)
	f.Add(`{"format":"ftsched-counterexample/v1","app":"paper-fig8","nFaults":0,"durations":{},"violations":[{"kind":"martian","proc":"P2","at":10}]}`)
	f.Add(`{"format":"ftsched-counterexample/v1","app":"paper-fig8","nFaults":0,"durations":{},"violations":[{"kind":"extra-fault","proc":"NOPE","at":10}]}`)
	f.Add(`{"format":"ftsched-counterexample/v1","app":"paper-fig8","nFaults":0,"durations":{},"violations":[{"kind":"extra-fault","proc":"P2","at":-1}]}`)
	f.Add(`{"format":"ftsched-counterexample/v1","app":"paper-fig8","nFaults":1,"durations":{"P2":999}}`)
	f.Add(`{"format":"ftsched-counterexample/v9"}`)
	f.Add(`{"durations":`)

	f.Fuzz(func(t *testing.T, input string) {
		sc, ce, err := DecodeCounterexample(strings.NewReader(input), app)
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("rejection is %T (%v), want *DecodeError", err, err)
			}
			if de.Error() == "" {
				t.Fatal("empty DecodeError message")
			}
			return
		}
		total := 0
		for _, n := range sc.FaultsAt {
			total += n
		}
		if total != sc.NFaults {
			t.Fatalf("accepted scenario is inconsistent: faults sum to %d, NFaults %d", total, sc.NFaults)
		}
		var out bytes.Buffer
		if err := EncodeCounterexample(&out, ce); err != nil {
			t.Fatalf("accepted counterexample does not re-encode: %v", err)
		}
		sc2, ce2, err := DecodeCounterexample(&out, app)
		if err != nil {
			t.Fatalf("re-encoded counterexample does not decode: %v", err)
		}
		if !reflect.DeepEqual(sc, sc2) {
			t.Fatal("round trip changed the scenario")
		}
		if !reflect.DeepEqual(ce.Violations, ce2.Violations) {
			t.Fatal("round trip changed the violation records")
		}
	})
}

// FuzzParseCoreSpec: the -core-spec CLI parser must never panic and must
// reject every malformed specification with a typed *DecodeError.
func FuzzParseCoreSpec(f *testing.F) {
	f.Add("lp:1:1:0.05,hp:2:3:0.15")
	f.Add("cpu:1:1:0")
	f.Add("")
	f.Add("a:b:c:d")
	f.Add("a:0:1:0")
	f.Add("a:-1:1:0")
	f.Add("a:1:-1:0")
	f.Add("a:1:1:-0.5")
	f.Add("a:1:1")
	f.Add(":1:1:0")
	f.Add("a:1:1:0,a:1:1:0")
	f.Add("a:NaN:1:0")
	f.Add("a:Inf:1:0")
	f.Fuzz(func(t *testing.T, spec string) {
		plat, err := ParseCoreSpec(spec)
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("rejection is %T (%v), want *DecodeError", err, err)
			}
			if de.Error() == "" {
				t.Fatal("empty DecodeError message")
			}
			return
		}
		if plat.NCores() == 0 {
			t.Fatal("accepted specification produced an empty platform")
		}
	})
}

// FuzzDecodeTree: both tree decoders must never panic on arbitrary input,
// and any accepted tree that passes the safety audit must survive a round
// trip through the compact encoding unchanged.
func FuzzDecodeTree(f *testing.F) {
	app := apps.Fig1()
	tree, err := core.FTQS(app, core.FTQSOptions{M: 8})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(v1Fixture(f)))
	var buf bytes.Buffer
	if err := EncodeTreeCompact(&buf, tree); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"app":"paper-fig1","k":1,"nodes":[{"id":0,"parent":-1,"entries":[{"proc":"P1"}]}]}`)
	f.Add(`{"format":"ftsched-tree/v2","app":"paper-fig1","k":1,"procs":["P1"],"nodes":[{"parent":-1,"kRem":1,"suffix":[[0,1]]}]}`)
	f.Add(`{"format":"ftsched-tree/v9"}`)
	f.Add(`{"nodes":`)
	// Adversarial time/gain bounds: negative and wrapping-sized guard times
	// must be rejected with a position-carrying typed error.
	f.Add(`{"app":"paper-fig1","k":1,"nodes":[{"id":0,"parent":-1,"entries":[{"proc":"P1"}],"arcs":[{"pos":0,"kind":"completion","lo":-5,"hi":10,"child":0}]}]}`)
	f.Add(`{"app":"paper-fig1","k":1,"nodes":[{"id":0,"parent":-1,"entries":[{"proc":"P1"}],"arcs":[{"pos":0,"kind":"completion","lo":0,"hi":99999999999999999,"child":0}]}]}`)
	f.Add(`{"app":"paper-fig1","k":1,"nodes":[{"id":0,"parent":-1,"entries":[{"proc":"P1","recoveries":-2}]}]}`)
	// Recovery-model seeds: a real v4 tree (which must be REJECTED against
	// this canonical application), a v2 tree smuggling a recovery member,
	// and v4 headers with missing/adversarial models.
	cpApp, err := app.WithRecovery(model.CheckpointModel(40, 3, 7))
	if err != nil {
		f.Fatal(err)
	}
	cpTree, err := core.FTQS(cpApp, core.FTQSOptions{M: 8})
	if err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := EncodeTreeCompact(&buf, cpTree); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"format":"ftsched-tree/v2","app":"paper-fig1","k":1,"procs":["P1"],"recovery":{"model":"restart","latency":5},"nodes":[{"parent":-1,"kRem":1,"suffix":[[0,1]]}]}`)
	f.Add(`{"format":"ftsched-tree/v4","app":"paper-fig1","k":1,"procs":["P1"],"nodes":[{"parent":-1,"kRem":1,"suffix":[[0,1]]}]}`)
	f.Add(`{"format":"ftsched-tree/v4","app":"paper-fig1","k":1,"procs":["P1"],"recovery":{"model":"restart","latency":-3},"nodes":[{"parent":-1,"kRem":1,"suffix":[[0,1]]}]}`)
	f.Add(`{"format":"ftsched-tree/v4","app":"paper-fig1","k":1,"procs":["P1"],"recovery":{"model":"checkpoint","spacing":10,"overhead":1,"rollback":1125899906842624},"nodes":[{"parent":-1,"kRem":1,"suffix":[[0,1]]}]}`)

	f.Fuzz(func(t *testing.T, input string) {
		got, err := DecodeTree(strings.NewReader(input), app)
		if err != nil {
			// Every rejection is a typed *DecodeError with a message;
			// anything else (or a panic) is a decoder bug.
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("rejection is %T (%v), want *DecodeError", err, err)
			}
			if de.Error() == "" {
				t.Fatal("empty DecodeError message")
			}
			return
		}
		// Decoding validates structure only; the full audit gates the
		// round-trip checks (Format and re-encoding index entries by the
		// arcs' guard positions, which only the audit bounds-checks).
		if core.VerifyTree(got) != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeTreeCompact(&buf, got); err != nil {
			t.Fatalf("accepted tree does not re-encode: %v", err)
		}
		back, err := DecodeTree(bytes.NewReader(buf.Bytes()), app)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if back.Format() != got.Format() {
			t.Fatal("round trip changed the tree")
		}
	})
}
