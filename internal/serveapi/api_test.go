package serveapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"testing"

	"ftsched/internal/certify"
	"ftsched/internal/chaos"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/runtime"
	"ftsched/internal/sim"
)

func body(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

func TestSniffFormat(t *testing.T) {
	cases := []struct {
		name   string
		data   string
		kind   string // sniffFormat verdict; "" = accepted
		decode string // decodeInto verdict; "" = accepted
	}{
		{"v1", `{"format":"ftsched-api/v1"}`, "", ""},
		{"missing", `{"app":{}}`, KindUnknownFormat, KindUnknownFormat},
		{"wrong", `{"format":"ftsched-api/v2"}`, KindUnknownFormat, KindUnknownFormat},
		{"tree format", `{"format":"ftsched-tree/v3"}`, KindUnknownFormat, KindUnknownFormat},
		{"broken", `{"format":`, KindBadRequest, KindBadRequest},
		{"array", `[1,2,3]`, KindBadRequest, KindBadRequest},
		{"null format", `{"format":null}`, KindUnknownFormat, KindUnknownFormat},
		{"empty format", `{"format":""}`, KindUnknownFormat, KindUnknownFormat},
		{"v1, malformed payload", `{"format":"ftsched-api/v1","options":{"m":"eight"}}`, "", KindBadRequest},
		// The body is decoded once, but unknown_format still wins over a
		// payload that does not fit the request type.
		{"wrong format, malformed payload", `{"format":"ftsched-api/v2","options":{"m":"eight"},"cycles":"none"}`,
			KindUnknownFormat, KindUnknownFormat},
		{"no format, malformed payload", `{"options":[]}`, KindUnknownFormat, KindUnknownFormat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			werr := sniffFormat([]byte(tc.data))
			switch {
			case tc.kind == "" && werr != nil:
				t.Fatalf("sniffFormat rejected %s: %v", tc.data, werr)
			case tc.kind != "" && werr == nil:
				t.Fatalf("sniffFormat accepted %s", tc.data)
			case tc.kind != "" && werr.Kind != tc.kind:
				t.Fatalf("kind = %q, want %q", werr.Kind, tc.kind)
			}
			if werr != nil && werr.Code != http.StatusBadRequest {
				t.Fatalf("code = %d, want 400", werr.Code)
			}
			var syn SynthesizeRequest
			var disp DispatchRequest
			for i, werr := range []*Error{
				decodeInto([]byte(tc.data), &syn, &syn.Format),
				decodeInto([]byte(tc.data), &disp, &disp.Format),
			} {
				switch {
				case tc.decode == "" && werr != nil:
					t.Fatalf("decodeInto #%d rejected %s: %v", i, tc.data, werr)
				case tc.decode != "" && werr == nil:
					t.Fatalf("decodeInto #%d accepted %s", i, tc.data)
				case tc.decode != "" && werr.Kind != tc.decode:
					t.Fatalf("decodeInto #%d kind = %q, want %q: %v", i, werr.Kind, tc.decode, werr)
				}
			}
		})
	}
}

func TestDecodeSynthesizeRequest(t *testing.T) {
	req, werr := DecodeSynthesizeRequest(body(t, SynthesizeRequest{
		Format:  FormatV1,
		App:     json.RawMessage(`{"format":"ftsched-app/v1"}`),
		Options: core.FTQSOptions{M: 8},
	}))
	if werr != nil {
		t.Fatalf("decode: %v", werr)
	}
	if req.Options.M != 8 {
		t.Fatalf("M = %d, want 8", req.Options.M)
	}

	if _, werr := DecodeSynthesizeRequest(body(t, SynthesizeRequest{Format: FormatV1})); werr == nil || werr.Kind != KindBadRequest {
		t.Fatalf("missing app: werr = %v, want %s", werr, KindBadRequest)
	}
	if _, werr := DecodeSynthesizeRequest(body(t, SynthesizeRequest{
		Format: FormatV1, App: json.RawMessage(`{}`), Options: core.FTQSOptions{M: MaxTreeSize + 1},
	})); werr == nil || werr.Kind != KindInvalidConfig || werr.Field != "M" {
		t.Fatalf("oversized M: werr = %v, want invalid_config on M", werr)
	}
}

// TestDecodeOptionsValidates: embedded synthesis options are rejected at
// decode, by core.FTQSOptions.Validate, with the library's field name.
func TestDecodeOptionsValidates(t *testing.T) {
	_, werr := DecodeSynthesizeRequest([]byte(`{"format":"ftsched-api/v1","app":{},"options":{"m":4,"sweep_samples":-1}}`))
	if werr == nil || werr.Kind != KindInvalidConfig || werr.Field != "SweepSamples" {
		t.Fatalf("synthesize: werr = %v, want invalid_config on SweepSamples", werr)
	}
	_, werr = DecodeEvalRequest([]byte(`{"format":"ftsched-api/v1","app":{},"options":{"m":4,"workers":-1},"config":{"scenarios":1}}`))
	if werr == nil || werr.Kind != KindInvalidConfig || werr.Field != "Workers" {
		t.Fatalf("eval: werr = %v, want invalid_config on Workers", werr)
	}
}

func TestDecodeEvalRequestValidates(t *testing.T) {
	req, werr := DecodeEvalRequest(body(t, EvalRequest{
		Format:  FormatV1,
		TreeRef: TreeRef{TreeKey: "abc"},
		Config:  sim.MCConfig{Scenarios: 100, Faults: 1, Seed: 42},
	}))
	if werr != nil {
		t.Fatalf("decode: %v", werr)
	}
	cfg := req.Config
	if req.TreeKey != "abc" || cfg.Scenarios != 100 || cfg.Faults != 1 || cfg.Seed != 42 {
		t.Fatalf("decoded %+v / %+v", req, cfg)
	}
	if cfg.Workers == 0 {
		t.Fatal("Validate did not normalise Workers")
	}

	// The wire rejects exactly what sim.MCConfig.Validate rejects, with
	// the same field name.
	_, werr = DecodeEvalRequest(body(t, EvalRequest{
		Format:  FormatV1,
		TreeRef: TreeRef{TreeKey: "abc"},
		Config:  sim.MCConfig{Scenarios: 0},
	}))
	if werr == nil || werr.Kind != KindInvalidConfig || werr.Field != "Scenarios" {
		t.Fatalf("werr = %v, want invalid_config on Scenarios", werr)
	}

	// No tree reference at all.
	_, werr = DecodeEvalRequest(body(t, EvalRequest{
		Format: FormatV1,
		Config: sim.MCConfig{Scenarios: 1},
	}))
	if werr == nil || werr.Kind != KindBadRequest {
		t.Fatalf("werr = %v, want bad_request", werr)
	}
}

func TestDecodeCertifyRequestValidates(t *testing.T) {
	req, werr := DecodeCertifyRequest(body(t, CertifyRequest{
		Format:  FormatV1,
		TreeRef: TreeRef{TreeKey: "abc"},
		Config:  certify.Config{MaxFaults: 2},
	}))
	if werr != nil {
		t.Fatalf("decode: %v", werr)
	}
	if cfg := req.Config; cfg.MaxFaults != 2 || cfg.Budget <= 0 {
		t.Fatalf("cfg = %+v, want normalised budget", cfg)
	}

	_, werr = DecodeCertifyRequest(body(t, CertifyRequest{
		Format:  FormatV1,
		TreeRef: TreeRef{TreeKey: "abc"},
		Config:  certify.Config{MaxFaults: -1},
	}))
	if werr == nil || werr.Kind != KindInvalidConfig || werr.Field != "MaxFaults" {
		t.Fatalf("werr = %v, want invalid_config on MaxFaults", werr)
	}
}

func TestDecodeChaosRequestValidates(t *testing.T) {
	_, cfg, werr := DecodeChaosRequest(body(t, ChaosRequest{
		Format:  FormatV1,
		TreeRef: TreeRef{TreeKey: "abc"},
		Config:  ChaosConfigJSON{Cycles: 64, OverrunProb: 0.5, OverrunFactor: 2},
	}))
	if werr != nil {
		t.Fatalf("decode: %v", werr)
	}
	if cfg.Policy != runtime.PolicyShedSoft {
		t.Fatalf("empty policy resolved to %v, want shed-soft", cfg.Policy)
	}

	_, cfg, werr = DecodeChaosRequest(body(t, ChaosRequest{
		Format:  FormatV1,
		TreeRef: TreeRef{TreeKey: "abc"},
		Config:  ChaosConfigJSON{Cycles: 1, Policy: "strict"},
	}))
	if werr != nil || cfg.Policy != runtime.PolicyStrict {
		t.Fatalf("policy strict: cfg = %+v, werr = %v", cfg, werr)
	}

	_, _, werr = DecodeChaosRequest(body(t, ChaosRequest{
		Format:  FormatV1,
		TreeRef: TreeRef{TreeKey: "abc"},
		Config:  ChaosConfigJSON{Cycles: 1, Policy: "yolo"},
	}))
	if werr == nil || werr.Kind != KindInvalidConfig || werr.Field != "Policy" {
		t.Fatalf("unknown policy: werr = %v, want invalid_config on Policy", werr)
	}

	_, _, werr = DecodeChaosRequest(body(t, ChaosRequest{
		Format:  FormatV1,
		TreeRef: TreeRef{TreeKey: "abc"},
		Config:  ChaosConfigJSON{Cycles: 1, OverrunProb: 1.5},
	}))
	if werr == nil || werr.Kind != KindInvalidConfig || werr.Field != "OverrunProb" {
		t.Fatalf("bad prob: werr = %v, want invalid_config on OverrunProb", werr)
	}
}

func TestDecodeDispatchRequest(t *testing.T) {
	req, werr := DecodeDispatchRequest(body(t, DispatchRequest{
		Format:  FormatV1,
		TreeRef: TreeRef{TreeKey: "abc"},
		Cycles: []CycleJSON{
			{Durations: []model.Time{3, 5}},
			{Durations: []model.Time{3, 5}, FaultsAt: []int{1, 0}},
		},
	}))
	if werr != nil {
		t.Fatalf("decode: %v", werr)
	}
	if len(req.Cycles) != 2 {
		t.Fatalf("cycles = %d", len(req.Cycles))
	}

	cases := []struct {
		name string
		req  DispatchRequest
	}{
		{"no cycles", DispatchRequest{Format: FormatV1, TreeRef: TreeRef{TreeKey: "a"}}},
		{"empty durations", DispatchRequest{Format: FormatV1, TreeRef: TreeRef{TreeKey: "a"},
			Cycles: []CycleJSON{{}}}},
		{"mis-sized faults", DispatchRequest{Format: FormatV1, TreeRef: TreeRef{TreeKey: "a"},
			Cycles: []CycleJSON{{Durations: []model.Time{1, 2}, FaultsAt: []int{1}}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, werr := DecodeDispatchRequest(body(t, tc.req)); werr == nil || werr.Kind != KindBadRequest {
				t.Fatalf("werr = %v, want bad_request", werr)
			}
		})
	}
}

func TestDecodeReloadRequest(t *testing.T) {
	if _, werr := DecodeReloadRequest(body(t, ReloadRequest{Format: FormatV1, TreeKey: "k"})); werr != nil {
		t.Fatalf("decode: %v", werr)
	}
	if _, werr := DecodeReloadRequest(body(t, ReloadRequest{Format: FormatV1})); werr == nil || werr.Kind != KindBadRequest {
		t.Fatalf("missing key: werr = %v", werr)
	}
	if _, werr := DecodeReloadRequest(body(t, ReloadRequest{Format: FormatV1, TreeKey: "k",
		Trim: &TrimJSON{Scenarios: 0}})); werr == nil || werr.Kind != KindInvalidConfig {
		t.Fatalf("zero trim: werr = %v", werr)
	}
}

func TestWireErrorMapping(t *testing.T) {
	cases := []struct {
		name  string
		err   error
		code  int
		kind  string
		field string
	}{
		{"passthrough", &Error{Code: 429, Kind: KindRateLimited}, 429, KindRateLimited, ""},
		{"mc config", &sim.ConfigError{Field: "Scenarios", Value: -1}, 400, KindInvalidConfig, "Scenarios"},
		{"certify config", &certify.ConfigError{Field: "Budget", Value: -1}, 400, KindInvalidConfig, "Budget"},
		{"chaos config", &chaos.ConfigError{Field: "Cycles", Value: 0, Constraint: "must be positive"}, 400, KindInvalidConfig, "Cycles"},
		{"ftqs options", &core.OptionsError{Field: "MinGain", Value: math.NaN(), Constraint: "finite"}, 400, KindInvalidConfig, "MinGain"},
		{"sample", &sim.SampleError{NFaults: 9, Bound: 2}, 400, KindBadRequest, ""},
		{"scenario size", &runtime.ScenarioSizeError{Durations: 1, Faults: 1, Want: 4}, 400, KindBadRequest, ""},
		{"unschedulable", fmt.Errorf("ftqs: %w", core.ErrUnschedulable), 422, KindUnschedulable, ""},
		{"unknown", errors.New("boom"), 500, KindInternal, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			werr := WireError(tc.err)
			if werr.Code != tc.code || werr.Kind != tc.kind || werr.Field != tc.field {
				t.Fatalf("WireError(%v) = %+v, want code %d kind %s field %q",
					tc.err, werr, tc.code, tc.kind, tc.field)
			}
			if werr.Message == "" && tc.name != "passthrough" {
				t.Fatal("empty message")
			}
		})
	}
}

// TestMCStatsRoundTrip gates the losslessness claim the wire determinism
// tests rest on: MCStats → JSON → MCStats is the identity, including
// non-round float64s.
func TestMCStatsRoundTrip(t *testing.T) {
	in := sim.MCStats{
		MeanUtility: 1.0 / 3.0, StdDev: math.Pi, MinUtility: -0.1, MaxUtility: math.Nextafter(1, 2),
		P05: 0.05, P50: 2.0 / 7.0, P95: 0.95,
		HardViolations: 3, Degraded: 5, Violations: 8,
		MeanSwitches: 0.1, MeanRecoveries: 0.2,
		MeanEnergy: 123.456, MeanEnergyActive: 100.4, MeanEnergyIdle: 23.056,
		Scenarios: 20000,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out sim.MCStats
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out != in {
		t.Fatalf("round trip lost data:\n in = %+v\nout = %+v", in, out)
	}
}

func TestCertifyReportRoundTrip(t *testing.T) {
	in := certify.Report{
		Mode: "exhaustive", MaxFaults: 2, Patterns: 10, PatternsPruned: 3,
		Scenarios: 1234, BisectionRuns: 17,
		WorstSlack: 42, WorstSlackProc: model.NoProcess,
		MinUtility: 0.75, MinUtilityFaultsAt: []int{0, 2, 0},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out certify.Report
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip lost data:\n in = %+v\nout = %+v", in, out)
	}
}

func TestChaosConfigRoundTrip(t *testing.T) {
	in := chaos.Config{
		Cycles: 100, Seed: 7, Workers: 2,
		Policy: runtime.PolicyBestEffort, Clamp: true, BaseFaults: 1,
		OverrunProb: 0.25, OverrunFactor: 1.5, StuckProb: 0.1,
		RegressionProb: 0.05, BurstProb: 0.2, ExtraFaults: 2,
		Correlated: true, SoftOnly: true,
	}
	data, err := json.Marshal(ChaosConfigJSONOf(in))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var wire ChaosConfigJSON
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	out, err := wire.ChaosConfig()
	if err != nil {
		t.Fatalf("ChaosConfig: %v", err)
	}
	if out != in {
		t.Fatalf("round trip lost data:\n in = %+v\nout = %+v", in, out)
	}
}

func TestFTQSOptionsRoundTrip(t *testing.T) {
	in := core.FTQSOptions{M: 16, SweepSamples: 128, MinGain: 0.001, EvalScenarios: 32,
		DisableRevival: true, Workers: 3}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out core.FTQSOptions
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out != in {
		t.Fatalf("round trip lost data:\n in = %+v\nout = %+v", in, out)
	}
}

func TestCycleScenarioConversion(t *testing.T) {
	sc := runtime.Scenario{Durations: []model.Time{3, 5, 2}, FaultsAt: []int{0, 2, 1}, NFaults: 3}
	c := CycleJSONOf(sc)
	back := c.Scenario()
	if !reflect.DeepEqual(back, sc) {
		t.Fatalf("round trip: %+v != %+v", back, sc)
	}

	// Fault-free scenarios omit FaultsAt on the wire; Scenario rebuilds a
	// zero slice of the right length.
	free := runtime.Scenario{Durations: []model.Time{3, 5}, FaultsAt: []int{0, 0}}
	cf := CycleJSONOf(free)
	if cf.FaultsAt != nil {
		t.Fatalf("fault-free cycle kept FaultsAt %v", cf.FaultsAt)
	}
	got := cf.Scenario()
	if !reflect.DeepEqual(got, free) {
		t.Fatalf("fault-free round trip: %+v != %+v", got, free)
	}
}

func TestErrorIsError(t *testing.T) {
	var err error = &Error{Code: 429, Kind: KindRateLimited, Message: "slow down", Tenant: "t1"}
	if err.Error() == "" {
		t.Fatal("empty Error()")
	}
	var werr *Error
	if !errors.As(fmt.Errorf("wrap: %w", err), &werr) || werr.Tenant != "t1" {
		t.Fatalf("errors.As failed: %v", werr)
	}
}
