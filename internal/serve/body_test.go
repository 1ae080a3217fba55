package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	goruntime "runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ftsched/internal/appio"
	"ftsched/internal/apps"
	"ftsched/internal/certify"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/runtime"
	"ftsched/internal/schedule"
	"ftsched/internal/serveapi"
)

// spaces is an endless body of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// oversized is a request body one byte past serveapi.MaxRequestBytes.
func oversized() io.Reader { return io.LimitReader(spaces{}, serveapi.MaxRequestBytes+1) }

// TestRequestBodyBounded sends serveapi.MaxRequestBytes+1 bytes with an
// accurate Content-Length, chunked, and under a Content-Length that
// understates the body: each gets the typed 413. A declared length far
// above what arrives is not allocated up front.
func TestRequestBodyBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	check := func(what string, code int, body []byte) {
		t.Helper()
		var er serveapi.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("%s: untyped body %.200q: %v", what, body, err)
		}
		if code != http.StatusRequestEntityTooLarge || er.Err.Code != code || er.Err.Kind != serveapi.KindBadRequest ||
			!strings.Contains(er.Err.Message, strconv.Itoa(serveapi.MaxRequestBytes)) {
			t.Fatalf("%s: got %d %+v, want the typed 413 naming %d bytes", what, code, er.Err, serveapi.MaxRequestBytes)
		}
	}
	send := func(what string, contentLength int64) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/dispatch", oversized())
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = contentLength
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s: reading response: %v", what, err)
		}
		check(what, resp.StatusCode, body)
	}
	send("content-length", serveapi.MaxRequestBytes+1)
	send("chunked", -1)

	// net/http never hands a handler more bytes than the declared length,
	// so the understated length goes to the handler directly: the
	// declared length sizes the read, it does not end it.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/dispatch", oversized())
	req.ContentLength = 16
	s.Handler().ServeHTTP(rec, req)
	check("understated content-length", rec.Code, rec.Body.Bytes())

	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost, "/v1/dispatch", strings.NewReader(`{"format":"ftsched-api/v1"}`))
	req.ContentLength = serveapi.MaxRequestBytes
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	s.Handler().ServeHTTP(rec, req)
	goruntime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("short body under a large declared length: status %d, want 400", rec.Code)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > serveapi.MaxRequestBytes/8 {
		t.Fatalf("a %d-byte body declared at %d bytes allocated %d bytes", req.ContentLength, serveapi.MaxRequestBytes, n)
	}
}

// unsafeTree schedules every process with zero recoveries: structurally
// valid, semantically unsafe under any fault.
func unsafeTree(app *model.Application) *core.Tree {
	entries := make([]schedule.Entry, app.N())
	for id := range entries {
		entries[id] = schedule.Entry{Proc: model.ProcessID(id)}
	}
	return &core.Tree{
		App: app,
		Nodes: []core.Node{{
			Schedule:       &schedule.FSchedule{Entries: entries},
			Parent:         core.NoNode,
			DroppedOnFault: model.NoProcess,
		}},
	}
}

// TestCertifyServesCounterexample serves a failed certification: a cache
// entry holding an unsafe tree certifies as HTTP 200 with certified
// false, the report and counterexample of the in-process certifier, and
// a counterexample whose scenario replays to the same hard miss.
func TestCertifyServesCounterexample(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	app := apps.Fig1()
	tree := unsafeTree(app)
	disp := mustDispatcher(t, tree)
	opts, err := core.FTQSOptions{}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	canon := appJSON(t, app)
	key := Key(canon, opts)
	s.cache.intern(key, app, canon, opts).state.Store(&compiled{tree: tree, disp: disp})

	cfg := certify.Config{MaxFaults: app.K()}
	var resp serveapi.CertifyResponse
	if code := post(t, ts.URL+"/v1/certify", "", serveapi.CertifyRequest{
		Format: serveapi.FormatV1, TreeRef: serveapi.TreeRef{TreeKey: key}, Config: cfg,
	}, &resp); code != http.StatusOK {
		t.Fatalf("certify: status %d", code)
	}
	if resp.Certified || resp.Counterexample == nil {
		t.Fatalf("unsafe tree served certified=%v with counterexample %+v", resp.Certified, resp.Counterexample)
	}

	report, err := certify.Certify(tree, cfg)
	var ceErr *certify.CounterexampleError
	if !errors.As(err, &ceErr) {
		t.Fatalf("in-process certify: %v, want a counterexample", err)
	}
	if !reflect.DeepEqual(resp.Report, report) {
		t.Fatalf("served report diverges:\nserved = %+v\nlocal  = %+v", resp.Report, report)
	}
	ce := ceErr.Counterexample
	want := appio.NewCounterexample(app, ce.Scenario, ce.Proc, ce.Completion, ce.Path)
	if !reflect.DeepEqual(resp.Counterexample, want) {
		t.Fatalf("served counterexample diverges:\nserved = %+v\nlocal  = %+v", resp.Counterexample, want)
	}

	var file bytes.Buffer
	if err := appio.EncodeCounterexample(&file, resp.Counterexample); err != nil {
		t.Fatal(err)
	}
	sc, _, err := appio.DecodeCounterexample(&file, app)
	if err != nil {
		t.Fatalf("decoding the served counterexample: %v", err)
	}
	var res runtime.Result
	if err := disp.RunInto(&res, sc); err != nil {
		t.Fatalf("replay: %v", err)
	}
	// Completion is 0 for a hard process that never ran.
	if !slices.Contains(res.HardViolations, ce.Proc) ||
		(ce.Completion != 0 && res.CompletionTimes[ce.Proc] != resp.Counterexample.Completion) {
		t.Fatalf("replay misses %v (completion %d), want %s at %d",
			res.HardViolations, res.CompletionTimes[ce.Proc], resp.Counterexample.Proc, resp.Counterexample.Completion)
	}
}

// TestWriteJSONContentLength: responses carry a Content-Length that
// matches the body, and a value encoding/json refuses is served as the
// typed internal error rather than an empty 200.
func TestWriteJSONContentLength(t *testing.T) {
	for _, tc := range []struct {
		v        any
		wantCode int
	}{
		{&serveapi.DispatchResponse{Format: serveapi.FormatV1, Results: []serveapi.CycleResultJSON{{Utility: 0.5}}}, http.StatusOK},
		{serveapi.HealthResponse{Format: serveapi.FormatV1, Status: HealthOK}, http.StatusOK},
		{&serveapi.DispatchResponse{Results: []serveapi.CycleResultJSON{{Utility: math.NaN()}}}, http.StatusInternalServerError},
	} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, tc.v)
		if rec.Code != tc.wantCode {
			t.Fatalf("%T: status %d, want %d", tc.v, rec.Code, tc.wantCode)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("%T: Content-Length %q for a %d-byte body", tc.v, cl, rec.Body.Len())
		}
		if tc.wantCode != http.StatusOK {
			var er serveapi.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Err.Kind != serveapi.KindInternal || er.Err.Code != tc.wantCode {
				t.Fatalf("%T: body %s (%v), want a typed internal error", tc.v, rec.Body.Bytes(), err)
			}
		}
	}
}
