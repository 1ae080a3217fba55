package serveapi

import (
	"bytes"
	"encoding"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ftsched/internal/appio"
	"ftsched/internal/certify"
	"ftsched/internal/chaos"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/runtime"
	"ftsched/internal/sim"
)

// wireCase is one request or response value whose encoding is pinned by
// testdata/wire/<name>.json.
type wireCase struct {
	name string
	// v points at the value to marshal.
	v any
	// want is what decoding the golden must yield; nil means *v. It
	// differs only where encoding/json decodes a JSON null into a
	// json.RawMessage as the literal "null".
	want any
}

func wireCases() []wireCase {
	const key = "5d41402abc4b2a76b9719d911017c592ae3b1d3c6a8e57a5e7c0f3a4b2d1e0f9"
	app := json.RawMessage(`{"format":"ftsched-app/v1","name":"paper-fig1","k":1}`)
	opts := core.FTQSOptions{M: 16, SweepSamples: 129, MinGain: 0.0012345678901234567,
		EvalScenarios: 33, DisableRevival: true, Workers: 3}
	ref := TreeRef{TreeKey: key, App: app, Options: &opts}
	stats := sim.MCStats{
		MeanUtility: 1.0 / 3.0, StdDev: math.Pi / 10, MinUtility: -0.123456789012345,
		MaxUtility: math.Nextafter(1, 2), P05: 0.05000000000000001, P50: 2.0 / 7.0, P95: 0.9499999999999998,
		HardViolations: 1, Degraded: 2, Violations: 3,
		MeanSwitches: math.Sqrt2 / 2, MeanRecoveries: 1e-7 / 3,
		MeanEnergy: 123.45678901234, MeanEnergyActive: 100.40000000000001, MeanEnergyIdle: 23.05678901233999,
		Scenarios: 20000,
	}
	report := certify.Report{
		Mode: "exhaustive", MaxFaults: 2, Patterns: 17, PatternsPruned: 5,
		Scenarios: 1 << 33, BisectionRuns: 41,
		WorstSlack: -7, WorstSlackProc: 3,
		MinUtility: 0.7071067811865476, MinUtilityFaultsAt: []int{0, 2, 0, 1},
	}
	noProc := certify.Report{
		Mode: "frontier", MaxFaults: 1, Patterns: 3, Scenarios: 96,
		WorstSlack: 1 << 40, WorstSlackProc: model.NoProcess,
		MinUtility: 1.0 / 9.0, MinUtilityFaultsAt: []int{1},
	}
	ce := &appio.Counterexample{
		Format: "ftsched-counterexample/v1", App: "paper-fig1", NFaults: 1,
		Durations: map[string]model.Time{"P1": 30, "P2": 45, "P3": 12},
		FaultsAt:  map[string]int{"P1": 1},
		Proc:      "P3", Deadline: 200, Completion: 213,
		Path:       []int{0, 3, 7},
		Violations: []appio.ViolationRecord{{Kind: "wcet-overrun", Proc: "P1", At: 12, Magnitude: 3}},
	}
	events := []runtime.ViolationEvent{
		{Kind: runtime.WCETOverrun, Proc: 2, At: 40, Magnitude: 7},
		{Kind: runtime.BudgetExhausted, Proc: 0, At: 95},
	}
	chaosReport := &chaos.Report{
		Cycles: 2, Injected: 1, Overruns: 1, ExtraFaults: 2, TimeRegressions: 3,
		BudgetExhausted: 4, Degraded: 5, StrictErrors: 6, HardMisses: 7,
		InModelMisses: 8, Breaches: 9, DetectionGaps: 10, Panics: 11,
		Records: []chaos.CycleRecord{
			{Cycle: 0},
			{
				Cycle: 1, Injected: true, TouchedHard: true, Violations: events,
				HardMiss: true, Degraded: true, ShedSlack: 17, OverrunTotal: 9,
				Breach: true, InModelMiss: true, DetectionGap: true,
				Strict: &runtime.EnvelopeError{Policy: runtime.PolicyStrict, Events: events},
				Panic:  "runtime error: index out of range [3] with length 3",
			},
		},
	}
	return []wireCase{
		{name: "synthesize_request_full", v: &SynthesizeRequest{
			Format: FormatV1, App: app, Options: opts, IncludeTree: true}},
		{name: "synthesize_request_zero", v: &SynthesizeRequest{},
			want: &SynthesizeRequest{App: json.RawMessage("null")}},
		{name: "synthesize_response_full", v: &SynthesizeResponse{
			Format: FormatV1, TreeKey: key, CacheHit: true, Nodes: 12, Arcs: 11, Generation: 2,
			CompileMillis: 12.345678901, Tree: json.RawMessage(`{"format":"ftsched-tree/v3","nodes":[]}`)}},
		{name: "synthesize_response_zero", v: &SynthesizeResponse{}},
		{name: "eval_request_full", v: &EvalRequest{
			Format: FormatV1, TreeRef: ref,
			Config: sim.MCConfig{Scenarios: 20000, Faults: 2, Seed: -8070450532247928832, Workers: 4}}},
		{name: "eval_request_zero", v: &EvalRequest{}},
		{name: "eval_response_full", v: &EvalResponse{
			Format: FormatV1, TreeKey: key, CacheHit: true, Stats: stats}},
		{name: "eval_response_zero", v: &EvalResponse{}},
		{name: "certify_request_full", v: &CertifyRequest{
			Format: FormatV1, TreeRef: ref,
			Config: certify.Config{MaxFaults: 2, Workers: 3, Budget: 1 << 41, MaxBoundaries: -1}}},
		{name: "certify_request_zero", v: &CertifyRequest{}},
		{name: "certify_response_full", v: &CertifyResponse{
			Format: FormatV1, TreeKey: key, CacheHit: true, Report: report, Counterexample: ce}},
		{name: "certify_response_noproc", v: &CertifyResponse{
			Format: FormatV1, TreeKey: key, Certified: true, Report: noProc}},
		{name: "certify_response_zero", v: &CertifyResponse{}},
		{name: "chaos_request_full", v: &ChaosRequest{
			Format: FormatV1, TreeRef: ref, IncludeRecords: true,
			Config: ChaosConfigJSON{
				Cycles: 800, Seed: 42, Workers: 2, Policy: "best-effort", Clamp: true, BaseFaults: 1,
				OverrunProb: 0.25000000000000006, OverrunFactor: 1.4142135623730951, StuckProb: 0.1,
				RegressionProb: 1.0 / 3.0, BurstProb: 0.2, ExtraFaults: 2, Correlated: true, SoftOnly: true,
			}}},
		{name: "chaos_request_zero", v: &ChaosRequest{}},
		{name: "chaos_response_full", v: &ChaosResponse{
			Format: FormatV1, TreeKey: key, CacheHit: true, Report: chaosReport}},
		{name: "chaos_response_zero", v: &ChaosResponse{}},
		{name: "dispatch_request_full", v: &DispatchRequest{
			Format: FormatV1, TreeRef: ref, Workers: 2,
			Cycles: []CycleJSON{
				{Durations: []model.Time{3, 5, 2}},
				{Durations: []model.Time{4, 1 << 35, 0}, FaultsAt: []int{1, 0, 2}},
			}}},
		{name: "dispatch_request_zero", v: &DispatchRequest{}},
		{name: "dispatch_response_full", v: &DispatchResponse{
			Format: FormatV1, TreeKey: key, CacheHit: true,
			Results: []CycleResultJSON{
				{Utility: 2.0 / 3.0, Makespan: 211, FinalNode: 4, Switches: 2, Recoveries: 1,
					FaultsConsumed: 1, Energy: 211.00000000000003},
				{Utility: -0.5, Makespan: 300, HardViolations: []int{2, 5}, Energy: 1e-9 / 7},
			}}},
		{name: "dispatch_response_zero", v: &DispatchResponse{}},
		{name: "reload_request_full", v: &ReloadRequest{
			Format: FormatV1, TreeKey: key, Trim: &TrimJSON{Scenarios: 256, Seed: -3}}},
		{name: "reload_request_zero", v: &ReloadRequest{}},
		{name: "reload_response_full", v: &ReloadResponse{
			Format: FormatV1, TreeKey: key, Nodes: 9, Arcs: 8, ArcsTrimmed: 3, Generation: 4}},
		{name: "reload_response_zero", v: &ReloadResponse{}},
	}
}

// TestWireGolden pins the v1 wire bytes of every request and response,
// fully populated and zero-valued: each value marshals to exactly its
// golden (plus the newline json.Encoder appends), and each golden decodes
// back to the value.
func TestWireGolden(t *testing.T) {
	for _, tc := range wireCases() {
		t.Run(tc.name, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", "wire", tc.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(tc.v)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			if got = append(got, '\n'); !bytes.Equal(got, golden) {
				t.Fatalf("wire bytes changed:\n got = %s\nwant = %s", got, golden)
			}
			want := tc.want
			if want == nil {
				want = tc.v
			}
			back := reflect.New(reflect.TypeOf(tc.v).Elem())
			if err := json.Unmarshal(golden, back.Interface()); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if !reflect.DeepEqual(back.Interface(), want) {
				t.Fatalf("golden decodes to\n%+v\nwant\n%+v", back.Elem(), reflect.ValueOf(want).Elem())
			}
			checkAppenderGolden(t, tc.v, golden)
		})
	}
}

// checkAppenderGolden runs a dispatch request or response through its
// single-pass appender and requires the golden's bytes. The request
// appender declines embedded app/options; on such a value it must
// decline, the encoding/json fallback of EncodeDispatchRequest must
// still give the golden, and the appender must reproduce the golden
// with both members removed from value and bytes alike.
func checkAppenderGolden(t *testing.T, v any, golden []byte) {
	t.Helper()
	var got []byte
	var ok bool
	switch v := v.(type) {
	case *DispatchRequest:
		full, err := EncodeDispatchRequest(v)
		if err != nil || !bytes.Equal(append(full, '\n'), golden) {
			t.Fatalf("EncodeDispatchRequest = %s, %v\nwant %s", full, err, golden)
		}
		if len(v.App) != 0 || v.Options != nil {
			if _, ok := appendDispatchRequest(nil, v); ok {
				t.Fatal("request appender accepted embedded app/options")
			}
			bare := *v
			bare.App, bare.Options = nil, nil
			i, j := bytes.Index(golden, []byte(`,"app":`)), bytes.Index(golden, []byte(`,"cycles":`))
			if i < 0 || j < i {
				t.Fatalf("golden carries no app/options members: %s", golden)
			}
			v, golden = &bare, append(golden[:i:i], golden[j:]...)
		}
		if got, ok = appendDispatchRequest(nil, v); ok {
			got = append(got, '\n')
		}
	case *DispatchResponse:
		full, err := EncodeDispatchResponse(v)
		if err != nil || !bytes.Equal(full, golden) {
			t.Fatalf("EncodeDispatchResponse = %s, %v\nwant %s", full, err, golden)
		}
		got, ok = appendDispatchResponse(nil, v)
	default:
		return
	}
	if !ok {
		t.Fatal("appender declined a golden value")
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("appender bytes differ from the golden:\n got = %s\nwant = %s", got, golden)
	}
}

// TestWireFieldsTagged walks every struct reachable from a request or
// response type and requires an explicit json tag — a name or "-" — on
// each exported field, so no field reaches the wire under its Go name.
// An untagged embedded struct (TreeRef) is walked inline, as
// encoding/json promotes its fields; types that marshal themselves
// (json.RawMessage, MarshalText implementations) are leaves.
func TestWireFieldsTagged(t *testing.T) {
	roots := []any{
		SynthesizeRequest{}, SynthesizeResponse{},
		EvalRequest{}, EvalResponse{},
		CertifyRequest{}, CertifyResponse{},
		ChaosRequest{}, ChaosResponse{},
		DispatchRequest{}, DispatchResponse{},
		ReloadRequest{}, ReloadResponse{},
		HealthResponse{}, ErrorResponse{},
	}
	marshaler := reflect.TypeOf((*json.Marshaler)(nil)).Elem()
	textMarshaler := reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem()
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if typ.Implements(marshaler) || typ.Implements(textMarshaler) {
			return
		}
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(typ.Elem(), path)
			return
		case reflect.Map:
			walk(typ.Key(), path)
			walk(typ.Elem(), path)
			return
		case reflect.Struct:
		default:
			return
		}
		if seen[typ] {
			return
		}
		seen[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			tag, tagged := f.Tag.Lookup("json")
			name := strings.Split(tag, ",")[0]
			if f.Anonymous && !tagged {
				walk(f.Type, path)
				continue
			}
			if !tagged || name == "" {
				t.Errorf("%s.%s (reached from %s) has no json name", typ, f.Name, path)
				continue
			}
			if name != "-" {
				walk(f.Type, path+"."+name)
			}
		}
	}
	for _, root := range roots {
		typ := reflect.TypeOf(root)
		walk(typ, typ.Name())
	}
	if len(seen) < len(roots) {
		t.Fatalf("walked only %d struct types", len(seen))
	}
}
