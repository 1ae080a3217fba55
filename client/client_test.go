package client

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"ftsched/internal/model"
	"ftsched/internal/serveapi"
)

// TestResponseBodyBounded streams one byte more than
// serveapi.MaxResponseBytes, chunked and then under a Content-Length that
// declares it: every call stops reading at the bound (or does not start,
// given the declared length) and fails with a typed
// *ResponseTooLargeError naming it, without retrying.
func TestResponseBodyBounded(t *testing.T) {
	var hits atomic.Int64
	var declare atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		if declare.Load() {
			w.Header().Set("Content-Length", strconv.Itoa(serveapi.MaxResponseBytes+1))
		}
		chunk := bytes.Repeat([]byte{' '}, 64<<10)
		for left := serveapi.MaxResponseBytes + 1; left > 0; left -= len(chunk) {
			if _, err := w.Write(chunk[:min(left, len(chunk))]); err != nil {
				return
			}
		}
	}))
	defer srv.Close()
	c := New(srv.URL, WithRetryPolicy(DefaultRetryPolicy()))
	ctx := context.Background()

	check := func(what string, err error) {
		t.Helper()
		var tooLarge *ResponseTooLargeError
		if !errors.As(err, &tooLarge) || tooLarge.Limit != serveapi.MaxResponseBytes {
			t.Fatalf("%s: err = %v, want *ResponseTooLargeError at %d bytes", what, err, serveapi.MaxResponseBytes)
		}
		if !strings.Contains(err.Error(), strconv.Itoa(serveapi.MaxResponseBytes)) {
			t.Fatalf("%s: error %q does not name the bound", what, err)
		}
		if n := hits.Swap(0); n != 1 {
			t.Fatalf("%s: %d requests, want 1 (an oversized body is not retried)", what, n)
		}
	}
	for _, how := range []string{"chunked", "content-length"} {
		declare.Store(how == "content-length")
		_, err := c.Dispatch(ctx, serveapi.DispatchRequest{
			TreeRef: serveapi.TreeRef{TreeKey: "k"},
			Cycles:  []serveapi.CycleJSON{{Durations: []model.Time{1}}},
		})
		check(how+" dispatch", err)
		_, err = c.Eval(ctx, serveapi.EvalRequest{TreeRef: serveapi.TreeRef{TreeKey: "k"}})
		check(how+" eval", err)
		_, err = c.Health(ctx)
		check(how+" healthz", err)
	}
}
