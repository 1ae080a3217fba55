package serveapi

import (
	"bytes"
	"encoding/json"
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

	var eval, evalRef EvalRequest
	evalErr, evalRefErr := decodeInto(data, &eval, &eval.Format), legacyDecode(data, &evalRef)
	if !reflect.DeepEqual(evalErr, evalRefErr) || (evalErr == nil && !reflect.DeepEqual(eval, evalRef)) {
		t.Fatalf("decodeInto(%q) = %#v, %v; two-pass decode = %#v, %v", data, eval, evalErr, evalRef, evalRefErr)
	}
}

// FuzzDispatchCodec is the differential test of the single-pass dispatch
// codec: on arbitrary bytes, DecodeDispatchRequest returns what the
// encoding/json path returns (a DeepEqual request or an identical
// *Error), and DecodeDispatchResponse what json.Unmarshal returns.
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
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDispatchCodec)
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
