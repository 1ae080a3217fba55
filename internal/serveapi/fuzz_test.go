package serveapi

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeAPIRequest drives every request decoder with arbitrary bytes.
// The invariants: no decoder panics, every rejection is a typed *Error
// with a 4xx code and a known kind, and every accepted body reaches a
// fixpoint — its encoding decodes again, and the second encoding equals
// the first byte for byte.
func FuzzDecodeAPIRequest(f *testing.F) {
	f.Add([]byte(`{"format":"ftsched-api/v1","app":{"k":1},"options":{"m":4}}`))
	f.Add([]byte(`{"format":"ftsched-api/v1","tree_key":"abc","config":{"scenarios":100,"faults":1}}`))
	f.Add([]byte(`{"format":"ftsched-api/v1","tree_key":"abc","config":{"max_faults":2,"budget":1000}}`))
	f.Add([]byte(`{"format":"ftsched-api/v1","tree_key":"abc","config":{"cycles":8,"policy":"shed-soft","overrun_prob":0.5,"overrun_factor":2}}`))
	f.Add([]byte(`{"format":"ftsched-api/v1","tree_key":"abc","cycles":[{"durations":[3,5],"faults_at":[1,0]}]}`))
	f.Add([]byte(`{"format":"ftsched-api/v1","tree_key":"abc","trim":{"scenarios":256,"seed":7}}`))
	f.Add([]byte(`{"format":"ftsched-tree/v3"}`))
	f.Add([]byte(`{"format":null}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"format":"ftsched-api/v1","config":{"scenarios":-1}}`))
	f.Add([]byte(`{"format":"ftsched-api/v1","tree_key":"abc","config":{"cycles":1,"policy":"nope"}}`))
	f.Add([]byte(`{"format":"ftsched-api/v1","app":{"k":1},"options":{"m":4,"sweep_samples":-1}}`))

	known := map[string]bool{
		KindBadRequest: true, KindUnknownFormat: true, KindInvalidConfig: true,
		KindInvalidApp: true, KindUnknownTree: true,
	}
	check := func(t *testing.T, werr *Error) {
		if werr == nil {
			return
		}
		if werr.Code < 400 || werr.Code > 499 {
			t.Fatalf("decode rejection carries non-4xx code %d: %+v", werr.Code, werr)
		}
		if !known[werr.Kind] {
			t.Fatalf("decode rejection carries unknown kind %q: %+v", werr.Kind, werr)
		}
		if werr.Message == "" {
			t.Fatalf("decode rejection carries no message: %+v", werr)
		}
	}
	decoders := []struct {
		name   string
		decode func([]byte) (any, *Error)
	}{
		{"synthesize", func(b []byte) (any, *Error) { return DecodeSynthesizeRequest(b) }},
		{"eval", func(b []byte) (any, *Error) { return DecodeEvalRequest(b) }},
		{"certify", func(b []byte) (any, *Error) { return DecodeCertifyRequest(b) }},
		{"chaos", func(b []byte) (any, *Error) {
			req, _, werr := DecodeChaosRequest(b)
			return req, werr
		}},
		{"dispatch", func(b []byte) (any, *Error) { return DecodeDispatchRequest(b) }},
		{"reload", func(b []byte) (any, *Error) { return DecodeReloadRequest(b) }},
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range decoders {
			req, werr := d.decode(data)
			if werr != nil {
				check(t, werr)
				continue
			}
			first, err := json.Marshal(req)
			if err != nil {
				t.Fatalf("%s: accepted request does not encode: %v", d.name, err)
			}
			again, werr := d.decode(first)
			if werr != nil {
				t.Fatalf("%s: re-encoded request rejected: %v\n%s", d.name, werr, first)
			}
			second, err := json.Marshal(again)
			if err != nil {
				t.Fatalf("%s: re-decoded request does not encode: %v", d.name, err)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("%s: encoding is not a fixpoint:\n first = %s\nsecond = %s", d.name, first, second)
			}
		}
	})
}
