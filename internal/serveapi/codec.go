package serveapi

import (
	"encoding/json"
	"strconv"

	"ftsched/internal/model"
)

// The dispatch batch is the one body on the hot path: a device sends a
// few thousand integers per request and reads back one small record per
// cycle. encoding/json spends most of a dispatch round trip reflecting
// over those numbers, so both directions go through a single-pass
// scanner instead.
//
// The scanner's contract is soundness, not coverage: when it accepts a
// body, the result is exactly (reflect.DeepEqual) what encoding/json
// decodes from it, nil-versus-empty slices included. On anything it does
// not handle — string escapes, non-ASCII, keys that are unknown or match
// a field only case-insensitively, null, fractions, exponents or overflow
// in an integer field, embedded app/options, a repeated array of
// records, any syntax error — it declines, and the encoding/json path
// decodes the body unchanged, errors included. FuzzDispatchCodec gates
// the contract against encoding/json on arbitrary bytes.

// maxIntDigits bounds the integer literals the scanner parses itself:
// 18 decimal digits always fit an int64 (9 an int on 32-bit platforms).
// Longer literals are declined and left to encoding/json's range check.
const maxIntDigits = strconv.IntSize * 18 / 64

// scanner walks one JSON document. Every method reports false on input
// it declines; the scanner is then abandoned.
type scanner struct {
	data []byte
	off  int
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.off < len(s.data) {
		if c := s.data[s.off]; c > ' ' || (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
			return
		}
		s.off++
	}
}

// consume skips whitespace and consumes c if it comes next.
func (s *scanner) consume(c byte) bool {
	s.ws()
	if s.off < len(s.data) && s.data[s.off] == c {
		s.off++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.ws()
	return s.off == len(s.data)
}

// str reads a string of printable ASCII without escapes and returns its
// bytes, which alias the document.
func (s *scanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	for i := s.off; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			v := s.data[s.off:i]
			s.off = i + 1
			return v, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// boolean reads true or false.
func (s *scanner) boolean() (v, ok bool) {
	s.ws()
	rest := s.data[s.off:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.off += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.off += 5
		return false, true
	}
	return false, false
}

// integer reads -?(0|[1-9][0-9]*) with at most maxIntDigits digits. A
// fraction or exponent that follows is left unread, so the caller's next
// structural check declines it.
func (s *scanner) integer() (int64, bool) {
	s.ws()
	i, neg := s.off, false
	if i < len(s.data) && s.data[i] == '-' {
		i, neg = i+1, true
	}
	start := i
	var n int64
	for i < len(s.data) && s.data[i]-'0' <= 9 {
		n = n*10 + int64(s.data[i]-'0')
		i++
	}
	if digits := i - start; digits == 0 || digits > maxIntDigits || (digits > 1 && s.data[start] == '0') {
		return 0, false
	}
	s.off = i
	if neg {
		n = -n
	}
	return n, true
}

// float reads a JSON number and converts it with strconv.ParseFloat, as
// encoding/json does; out-of-range values are declined.
func (s *scanner) float() (float64, bool) {
	s.ws()
	d, i := s.data, s.off
	digits := func() bool {
		j := i
		for i < len(d) && d[i]-'0' <= 9 {
			i++
		}
		return i > j
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case !digits():
		return 0, false
	}
	if i < len(d) && d[i] == '.' {
		i++
		if !digits() {
			return 0, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(d[s.off:i]), 64)
	if err != nil {
		return 0, false
	}
	s.off = i
	return f, true
}

// object reads an object, handing each key to member, which must consume
// the member's value.
func (s *scanner) object(member func(key []byte) bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.consume(':') || !member(key) {
			return false
		}
		if !s.consume(',') {
			return s.consume('}')
		}
	}
}

// array reads an array, calling elem once per element to consume it.
func (s *scanner) array(elem func() bool) bool {
	if !s.consume('[') {
		return false
	}
	if s.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.consume(',') {
			return s.consume(']')
		}
	}
}

// ints appends the elements of an integer array to dst. It is array
// unrolled by hand: this loop is where a dispatch request spends its
// decode time.
func ints[T ~int | ~int64](s *scanner, dst []T) ([]T, bool) {
	if !s.consume('[') {
		return dst, false
	}
	if s.consume(']') {
		return dst, true
	}
	for {
		n, ok := s.integer()
		if !ok {
			return dst, false
		}
		dst = append(dst, T(n))
		if !s.consume(',') {
			return dst, s.consume(']')
		}
	}
}

// span locates one decoded array inside an arena; set distinguishes an
// absent member (nil slice) from [] (empty, non-nil).
type span struct {
	lo, hi int
	set    bool
}

// slice cuts s out of the arena, cap-limited so an append on one cycle
// cannot overwrite the next. The arena must be non-nil.
func slice[T any](arena []T, s span) []T {
	if !s.set {
		return nil
	}
	return arena[s.lo:s.hi:s.hi]
}

// arrayInto decodes an integer array onto the arena and records its span.
func arrayInto[T ~int | ~int64](s *scanner, arena *[]T, sp *span) bool {
	lo := len(*arena)
	var ok bool
	*arena, ok = ints(s, *arena)
	*sp = span{lo: lo, hi: len(*arena), set: true}
	return ok
}

// scanDispatchRequest decodes a dispatch request in one pass, or returns
// nil to decline it. Every cycle's integers land in one flat arena per
// element type (sized for the ~3 bytes a duration takes on the wire).
// Only FormatV1 bodies are accepted, so the format check of
// decodeInto holds for every result.
func scanDispatchRequest(data []byte) *DispatchRequest {
	type cycleSpans struct{ durations, faults span }
	var (
		req                  DispatchRequest
		cycles               = make([]cycleSpans, 0, 64)
		durs                 = make([]model.Time, 0, len(data)/4)
		faults               = make([]int, 0, len(data)/8)
		sawFormat, sawCycles bool
	)
	s := scanner{data: data}
	cycle := func() bool {
		var c cycleSpans
		ok := s.object(func(key []byte) bool {
			switch string(key) {
			case "durations":
				return arrayInto(&s, &durs, &c.durations)
			case "faults_at":
				return arrayInto(&s, &faults, &c.faults)
			}
			return false
		})
		cycles = append(cycles, c)
		return ok
	}
	ok := s.object(func(key []byte) bool {
		switch string(key) {
		case "format":
			v, ok := s.str()
			sawFormat = true
			return ok && string(v) == FormatV1
		case "tree_key":
			v, ok := s.str()
			req.TreeKey = string(v)
			return ok
		case "workers":
			n, ok := s.integer()
			req.Workers = int(n)
			return ok
		case "cycles":
			if sawCycles {
				// encoding/json merges a repeated array of records into
				// the first one element by element.
				return false
			}
			sawCycles = true
			return s.array(cycle)
		}
		return false
	})
	if !ok || !sawFormat || !s.end() {
		return nil
	}
	req.Format = FormatV1
	if sawCycles {
		req.Cycles = make([]CycleJSON, len(cycles))
		for i, c := range cycles {
			req.Cycles[i] = CycleJSON{Durations: slice(durs, c.durations), FaultsAt: slice(faults, c.faults)}
		}
	}
	return &req
}

// DecodeDispatchResponse decodes a dispatch response body: one scanner
// pass when the body is in the shape ftserved writes, encoding/json
// (and its error) otherwise. The result equals json.Unmarshal's.
func DecodeDispatchResponse(data []byte) (*DispatchResponse, error) {
	if resp := scanDispatchResponse(data); resp != nil {
		return resp, nil
	}
	var resp DispatchResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// scanDispatchResponse decodes a dispatch response in one pass, or
// returns nil to decline it. Hard-violation lists share one arena.
func scanDispatchResponse(data []byte) *DispatchResponse {
	var (
		resp       DispatchResponse
		violations []int
		spans      []span
		sawResults bool
	)
	s := scanner{data: data}
	result := func() bool {
		var r CycleResultJSON
		var sp span
		ok := s.object(func(key []byte) bool {
			var ok bool
			var n int64
			switch string(key) {
			case "utility":
				r.Utility, ok = s.float()
			case "energy":
				r.Energy, ok = s.float()
			case "makespan":
				n, ok = s.integer()
				r.Makespan = model.Time(n)
			case "final_node":
				n, ok = s.integer()
				r.FinalNode = int(n)
			case "switches":
				n, ok = s.integer()
				r.Switches = int(n)
			case "recoveries":
				n, ok = s.integer()
				r.Recoveries = int(n)
			case "faults_consumed":
				n, ok = s.integer()
				r.FaultsConsumed = int(n)
			case "hard_violations":
				ok = arrayInto(&s, &violations, &sp)
			}
			return ok
		})
		resp.Results = append(resp.Results, r)
		spans = append(spans, sp)
		return ok
	}
	ok := s.object(func(key []byte) bool {
		switch string(key) {
		case "format":
			v, ok := s.str()
			resp.Format = string(v)
			return ok
		case "tree_key":
			v, ok := s.str()
			resp.TreeKey = string(v)
			return ok
		case "cache_hit":
			var ok bool
			resp.CacheHit, ok = s.boolean()
			return ok
		case "results":
			if sawResults {
				return false
			}
			sawResults = true
			resp.Results = make([]CycleResultJSON, 0, 64)
			return s.array(result)
		}
		return false
	})
	if !ok || !s.end() {
		return nil
	}
	if violations == nil {
		violations = []int{}
	}
	for i, sp := range spans {
		resp.Results[i].HardViolations = slice(violations, sp)
	}
	return &resp
}
