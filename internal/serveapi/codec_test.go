package serveapi

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/runtime"
	"ftsched/internal/sim"
)

// ccBodies holds a 64-cycle dispatch batch on the cruise controller (FTQS
// tree, M=16) as the client encodes the request and the server writes
// the response.
var ccBodies = sync.OnceValues(func() (req, resp []byte) {
	app := apps.CruiseController()
	tree, err := core.FTQS(app, core.FTQSOptions{M: 16})
	if err != nil {
		panic(err)
	}
	disp, err := runtime.NewDispatcher(tree)
	if err != nil {
		panic(err)
	}
	dreq := DispatchRequest{Format: FormatV1, TreeRef: TreeRef{TreeKey: "3f9c0a7e5b21d864"}}
	dresp := DispatchResponse{Format: FormatV1, TreeKey: dreq.TreeKey, CacheHit: true}
	var sc sim.Scenario
	var res runtime.Result
	for i := 0; i < 64; i++ {
		rng := sim.NewRNG(sim.ScenarioSeed(3, i))
		if err := sim.SampleRNGInto(&sc, app, &rng, i%(app.K()+1), nil); err != nil {
			panic(err)
		}
		cyc := CycleJSONOf(runtime.Scenario{
			Durations: append([]model.Time(nil), sc.Durations...),
			FaultsAt:  append([]int(nil), sc.FaultsAt...),
		})
		dreq.Cycles = append(dreq.Cycles, cyc)
		if err := disp.RunInto(&res, cyc.Scenario()); err != nil {
			panic(err)
		}
		dresp.Results = append(dresp.Results, ResultJSON(&res))
	}
	req, err = json.Marshal(dreq)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&dresp); err != nil {
		panic(err)
	}
	return req, buf.Bytes()
})

// legacyDecode is the two-pass request decode the single-pass path must
// reproduce: sniff the format, then unmarshal.
func legacyDecode(data []byte, dst any) *Error {
	if werr := sniffFormat(data); werr != nil {
		return werr
	}
	if err := json.Unmarshal(data, dst); err != nil {
		return badRequest(KindBadRequest, "decoding request: %v", err)
	}
	return nil
}

// referenceDispatch is DecodeDispatchRequest with encoding/json alone.
func referenceDispatch(data []byte) (*DispatchRequest, *Error) {
	var req DispatchRequest
	if werr := legacyDecode(data, &req); werr != nil {
		return nil, werr
	}
	if werr := checkDispatch(&req); werr != nil {
		return nil, werr
	}
	return &req, nil
}

// checkDispatchCodec asserts the codec contract on one body: both
// dispatch decoders agree with encoding/json, and so does the
// single-pass decodeInto of another endpoint.
func checkDispatchCodec(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := DecodeDispatchRequest(data)
	want, wantErr := referenceDispatch(data)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
		t.Fatalf("DecodeDispatchRequest(%q)\n got %#v, %v\nwant %#v, %v", data, got, gotErr, want, wantErr)
	}
	if scanned := scanDispatchRequest(data); scanned != nil {
		var ref DispatchRequest
		if werr := legacyDecode(data, &ref); werr != nil || !reflect.DeepEqual(*scanned, ref) {
			t.Fatalf("scanner accepted %q\n got %#v\nwant %#v, %v", data, *scanned, ref, werr)
		}
		checkRequestAppender(t, scanned)
	}

	gotResp, gotRespErr := DecodeDispatchResponse(data)
	var wantResp DispatchResponse
	wantRespErr := json.Unmarshal(data, &wantResp)
	switch {
	case wantRespErr != nil:
		if gotRespErr == nil || gotRespErr.Error() != wantRespErr.Error() {
			t.Fatalf("DecodeDispatchResponse(%q) error = %v, want %v", data, gotRespErr, wantRespErr)
		}
	case gotRespErr != nil || !reflect.DeepEqual(*gotResp, wantResp):
		t.Fatalf("DecodeDispatchResponse(%q)\n got %#v, %v\nwant %#v", data, gotResp, gotRespErr, wantResp)
	}

	if got != nil {
		checkRequestAppender(t, got)
	}
	if wantRespErr == nil {
		checkResponseAppender(t, &wantResp)
	}

	var eval, evalRef EvalRequest
	evalErr, evalRefErr := decodeInto(data, &eval, &eval.Format), legacyDecode(data, &evalRef)
	if !reflect.DeepEqual(evalErr, evalRefErr) || (evalErr == nil && !reflect.DeepEqual(eval, evalRef)) {
		t.Fatalf("decodeInto(%q) = %#v, %v; two-pass decode = %#v, %v", data, eval, evalErr, evalRef, evalRefErr)
	}
}

// checkRequestAppender asserts the request appender's contract on a
// decoded request: it declines, or writes exactly json.Marshal's bytes;
// EncodeDispatchRequest always does the latter.
func checkRequestAppender(t *testing.T, req *DispatchRequest) {
	t.Helper()
	want, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("json.Marshal(%#v): %v", req, err)
	}
	if got, ok := appendDispatchRequest(nil, req); ok && !bytes.Equal(got, want) {
		t.Fatalf("request appender wrote\n%s\nencoding/json writes\n%s", got, want)
	}
	if got, err := EncodeDispatchRequest(req); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("EncodeDispatchRequest = %s, %v\nwant %s", got, err, want)
	}
}

// checkResponseAppender asserts the response appender's contract: it
// declines, or writes exactly json.Encoder's bytes, trailing newline
// included; EncodeDispatchResponse always does the latter, and returns
// encoding/json's error on a value it refuses (NaN, ±Inf).
func checkResponseAppender(t *testing.T, resp *DispatchResponse) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		if _, ok := appendDispatchResponse(nil, resp); ok {
			t.Fatalf("response appender accepted %#v, which encoding/json refuses: %v", resp, err)
		}
		if _, got := EncodeDispatchResponse(resp); got == nil || got.Error() != err.Error() {
			t.Fatalf("EncodeDispatchResponse error = %v, want %v", got, err)
		}
		return
	}
	want := buf.Bytes()
	if got, ok := appendDispatchResponse(nil, resp); ok && !bytes.Equal(got, want) {
		t.Fatalf("response appender wrote\n%s\nencoding/json writes\n%s", got, want)
	}
	if got, err := EncodeDispatchResponse(resp); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("EncodeDispatchResponse = %s, %v\nwant %s", got, err, want)
	}
}

// FuzzDispatchCodec is the differential test of the single-pass dispatch
// codec: on arbitrary bytes, DecodeDispatchRequest returns what the
// encoding/json path returns (a DeepEqual request or an identical
// *Error), and DecodeDispatchResponse what json.Unmarshal returns.
// Whenever a body decodes, the appenders either decline the value or
// write encoding/json's bytes for it exactly.
func FuzzDispatchCodec(f *testing.F) {
	ccReq, ccResp := ccBodies()
	f.Add(ccReq)
	f.Add(ccResp)
	const (
		v1  = `"format":"ftsched-api/v1"`
		key = `"tree_key":"abc"`
	)
	for _, s := range []string{
		// Shapes the scanner accepts.
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[3,5],"faults_at":[1,0]},{"durations":[4,4]}],"workers":2}`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[3,5]}]}`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[3,5],"faults_at":[]}]}`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[]}]}`,
		`{` + v1 + `,` + key + `,"cycles":[]}`,
		`{` + v1 + `,` + key + `}`,
		` { ` + v1 + ` , "tree_key" : "abc" , "cycles" : [ { "durations" : [ 3 , 5 ] , "faults_at" : [ 0 , 1 ] } ] } ` + "\n",
		"{\t" + v1 + ",\r\n" + key + ",\n\"cycles\":[\n{\"durations\":[\n1\n]}\n]\n}",
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[-0,0]}],"workers":-0}`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[3,5],"durations":[7],"faults_at":[1],"faults_at":[0]}]}`,
		`{"format":"ftsched-api/v2",` + v1 + `,"tree_key":"a",` + key + `,"workers":1,"workers":0,"cycles":[{"durations":[1]}]}`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[999999999999999999,-999999999999999999]}]}`,
		// Shapes the scanner declines.
		`{` + v1 + `,"tree_key":"a\u0062c","cycles":[{"durations":[1]}]}`,
		`{` + v1 + `,"tree_key":"a\"b","cycles":[{"durations":[1]}]}`,
		`{` + v1 + `,"tree_key":"caf` + "\xc3\xa9" + `","cycles":[{"durations":[1]}]}`,
		`{` + v1 + `,"tree_key":"bad` + "\xff" + `","cycles":[{"durations":[1]}]}`,
		`{"Format":"ftsched-api/v1",` + key + `,"Cycles":[{"Durations":[1],"FAULTS_AT":[0]}]}`,
		`{` + v1 + `,` + key + `,"cycles":null}`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[3,5],"faults_at":null}]}`,
		`{` + v1 + `,"tree_key":null,"cycles":[{"durations":null,"faults_at":null}],"workers":null}`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[1.5]}]}`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[1e3]}]}`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[1]}],"workers":2.0}`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[9223372036854775808]}]}`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[9223372036854775807,-9223372036854775808]}]}`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[007]}]}`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[-]}]}`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[3}5]}]}`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[3 5]}]}`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[3,5}]}`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[1]}],"extra":{"nested":[1,2]}}`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[1],"note":"x"}]}`,
		`{` + v1 + `,"app":{"k":1},"options":{"m":4},"cycles":[{"durations":[1]}]}`,
		`{` + v1 + `,` + key + `,"options":{"m":99999},"cycles":[{"durations":[1]}]}`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[1]}],"cycles":[{"faults_at":[1]}]}`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[1]},]}`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[1]}]`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[1]}]}x`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[1,2],"faults_at":[1]}]}`,
		`{` + v1 + `,` + key + `,"cycles":[{"durations":[1]}],"workers":-1}`,
		`{"format":"ftsched-api/v2",` + key + `,"cycles":[{"durations":[1]}]}`,
		`{"format":"ftsched-api/v2","cycles":"not an array"}`,
		`{` + key + `,"cycles":[{"durations":[1]}]}`,
		`{"cycles":[{"durations":[1]}]}`,
		`null`,
		`[]`,
		``,
		// Response shapes, accepted and declined.
		`{` + v1 + `,` + key + `,"cache_hit":true,"results":[{"utility":1.5,"makespan":120,"final_node":3,"switches":1,"recoveries":0,"faults_consumed":0,"energy":2.25e-3}]}`,
		`{` + v1 + `,` + key + `,"cache_hit":false,"results":[{"utility":-0,"makespan":1,"hard_violations":[2,5],"energy":0}]}`,
		`{` + v1 + `,` + key + `,"results":[{"utility":1,"hard_violations":[]}]}`,
		`{` + v1 + `,` + key + `,"results":[{"utility":1,"hard_violations":null}]}`,
		`{` + v1 + `,` + key + `,"results":[]}`,
		`{` + v1 + `,` + key + `,"results":[{"utility":1E+2,"energy":1e400}]}`,
		`{` + v1 + `,` + key + `,"results":[{"utility":0.1e-400,"energy":-1.7976931348623157e308}]}`,
		`{` + v1 + `,` + key + `,"results":[{"makespan":1.0}]}`,
		`{` + v1 + `,` + key + `,"cache_hit":True,"results":[]}`,
		`{` + v1 + `,` + key + `,"cache_hit":null,"results":[]}`,
		`{"format":"x","results":[{"utility":1}],"results":[{"energy":2}]}`,
		`{"format":"x","results":[{"utility":1,"utility":2,"hard_violations":[1],"hard_violations":[3,4]}]}`,
		// Floats at encoding/json's 'f'/'e' switch points, and strings
		// the appenders must decline because encoding/json escapes them.
		`{` + v1 + `,` + key + `,"results":[{"utility":1e-6,"energy":9.999999999999999e-7},{"utility":-1e-7,"energy":1e21},{"utility":999999999999999900000,"energy":5e-324},{"utility":-0,"energy":1.7976931348623157e308},{"utility":1e-10,"energy":123456789012345678}]}`,
		`{` + v1 + `,"tree_key":"a<b>&c","cache_hit":true,"results":[]}`,
		`{"format":"ftsched-api/v1\u2028","results":null}`,
		`{` + v1 + `,"tree_key":"a<b>&c","cycles":[{"durations":[1]}]}`,
		`{` + v1 + `,"tree_key":"del` + "\x7f" + `","cycles":[{"durations":[1]}],"workers":3}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDispatchCodec)
}

// TestDispatchAppendersMatchEncodingJSON drives both appenders with
// random values: floats drawn from every exponent (bit patterns, so
// subnormals and the 'f'/'e' switch points at 1e-6 and 1e21 come up),
// integers of every width, nil and empty slices, strings with and without
// bytes encoding/json escapes.
func TestDispatchAppendersMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	float := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return math.Float64frombits(rng.Uint64())
		case 1:
			return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
		case 2:
			return []float64{0, math.Copysign(0, -1), 1e-6, 1e21, math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0), -1e-7}[rng.Intn(7)]
		}
		return float64(rng.Intn(1000)) / 8
	}
	integer := func() int64 { return rng.Int63() >> rng.Intn(63) * int64(1-2*rng.Intn(2)) }
	ints := func() []int {
		if rng.Intn(5) == 0 {
			return [][]int{nil, {}}[rng.Intn(2)]
		}
		v := make([]int, rng.Intn(6))
		for i := range v {
			v[i] = int(integer())
		}
		return v
	}
	str := func() string {
		if rng.Intn(4) > 0 {
			return []string{"", FormatV1, "3f9c0a7e", "a b~\x7f"}[rng.Intn(4)]
		}
		return []string{"a<b", "x&y", "q\"", "t\u2028", "caf\u00e9", "\t"}[rng.Intn(6)]
	}
	accepted := 0
	for i := 0; i < 2000; i++ {
		req := DispatchRequest{Format: str(), TreeRef: TreeRef{TreeKey: str()}, Workers: int(integer())}
		if rng.Intn(3) > 0 {
			req.Cycles = make([]CycleJSON, rng.Intn(4))
			for j := range req.Cycles {
				req.Cycles[j].FaultsAt = ints()
				for _, n := range ints() {
					req.Cycles[j].Durations = append(req.Cycles[j].Durations, model.Time(n))
				}
			}
		}
		checkRequestAppender(t, &req)
		resp := DispatchResponse{Format: str(), TreeKey: str(), CacheHit: rng.Intn(2) == 0}
		if rng.Intn(3) > 0 {
			resp.Results = make([]CycleResultJSON, rng.Intn(4))
			for j := range resp.Results {
				resp.Results[j] = CycleResultJSON{
					Utility: float(), Makespan: model.Time(integer()), FinalNode: int(integer()),
					Switches: int(integer()), Recoveries: int(integer()), FaultsConsumed: int(integer()),
					HardViolations: ints(), Energy: float(),
				}
			}
		}
		checkResponseAppender(t, &resp)
		if _, ok := appendDispatchResponse(nil, &resp); ok {
			accepted++
		}
	}
	if accepted < 1000 {
		t.Fatalf("response appender accepted only %d of 2000 values", accepted)
	}
}

func TestDispatchScannerAcceptsServedBodies(t *testing.T) {
	ccReq, ccResp := ccBodies()
	req := scanDispatchRequest(ccReq)
	if req == nil {
		t.Fatal("scanner declined the CC dispatch request the client encodes")
	}
	if scanDispatchResponse(ccResp) == nil {
		t.Fatal("scanner declined the CC dispatch response the server writes")
	}

	// Cycles share one arena, but each sub-slice is cap-limited: growing
	// one cycle's slice never overwrites the next cycle.
	next := append([]model.Time(nil), req.Cycles[1].Durations...)
	_ = append(req.Cycles[0].Durations, -1)
	if !reflect.DeepEqual(req.Cycles[1].Durations, next) {
		t.Fatal("append on cycle 0 overwrote cycle 1")
	}
}

// TestDispatchAppendersReproduceServedBodies: the appenders accept the
// CC batch the client sends and the results the server returns, and
// write them byte for byte as encoding/json did.
func TestDispatchAppendersReproduceServedBodies(t *testing.T) {
	ccReq, ccResp := ccBodies()
	if got, ok := appendDispatchRequest(nil, scanDispatchRequest(ccReq)); !ok || !bytes.Equal(got, ccReq) {
		t.Fatalf("request appender (accepted %v) does not reproduce the CC dispatch request", ok)
	}
	if got, ok := appendDispatchResponse(nil, scanDispatchResponse(ccResp)); !ok || !bytes.Equal(got, ccResp) {
		t.Fatalf("response appender (accepted %v) does not reproduce the CC dispatch response", ok)
	}
}

// TestDispatchScanArenasSized: the request scanner's arenas hold the
// whole CC batch. A scan allocates the request, its cycle list, the two
// integer arenas and the tree key; an arena that regrew would add to
// that.
func TestDispatchScanArenasSized(t *testing.T) {
	ccReq, _ := ccBodies()
	if n := testing.AllocsPerRun(20, func() { scanDispatchRequest(ccReq) }); n > 5 {
		t.Fatalf("scanning the CC dispatch request allocates %v times, want at most 5", n)
	}
}

// Benchmark results land here so the compiler cannot drop the calls.
var (
	benchReq  *DispatchRequest
	benchResp *DispatchResponse
)

func BenchmarkDecodeDispatchRequest(b *testing.B) {
	body, _ := ccBodies()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var werr *Error
		if benchReq, werr = DecodeDispatchRequest(body); werr != nil {
			b.Fatal(werr)
		}
	}
}

func BenchmarkDecodeDispatchResponse(b *testing.B) {
	_, body := ccBodies()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchResp, err = DecodeDispatchResponse(body); err != nil {
			b.Fatal(err)
		}
	}
}

// Encoded bodies land here so the compiler cannot drop the calls.
var benchBody []byte

func BenchmarkEncodeDispatchRequest(b *testing.B) {
	body, _ := ccBodies()
	req := scanDispatchRequest(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchBody, err = EncodeDispatchRequest(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDispatchResponse(b *testing.B) {
	_, body := ccBodies()
	resp := scanDispatchResponse(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchBody, err = EncodeDispatchResponse(resp); err != nil {
			b.Fatal(err)
		}
	}
}
