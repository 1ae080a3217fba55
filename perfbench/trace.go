package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ftsched/internal/obs"
)

// span is one timed call across a layer boundary. Spans of one fleet
// request are linked through parent IDs: client call → HTTP round trip →
// server handler.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is the number of operations a batch span covers (0 means 1).
	N int64 `json:"n,omitempty"`
	// In and Out are the bytes a span consumed and produced, where the
	// call has a natural size (request and response bodies, encoded trees).
	In  int64 `json:"in,omitempty"`
	Out int64 `json:"out,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

func (s span) ops() int64 { return max(s.N, 1) }

// tracer keeps spans in memory for the whole traced run, plus the
// obs.Metrics sink handed to every engine config during it.
type tracer struct {
	epoch time.Time
	m     *obs.Metrics
	ids   atomic.Uint64

	mu      sync.Mutex
	spans   []span
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), m: obs.NewMetrics(), samples: map[string][]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// sample records a value a layer reported about itself rather than one
// the benchmark timed, such as the server's compile time of a miss.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// sink returns the tracer's metrics as an engine sink; a nil tracer (an
// untraced pass) yields a nil sink, which every engine treats as off.
func (t *tracer) sink() obs.Sink {
	if t == nil {
		return nil
	}
	return t.m
}

// timed runs fn and, when tracing, records it as a span under parent; fn
// may fill in the span's size fields. It returns fn's wall time in
// nanoseconds either way.
func (t *tracer) timed(parent uint64, name string, fn func(s *span) error) (int64, error) {
	s := span{Parent: parent, Name: name}
	if t == nil {
		t0 := time.Now()
		err := fn(&s)
		return int64(time.Since(t0)), err
	}
	s.Start = t.now()
	err := fn(&s)
	s.End = t.now()
	t.add(s)
	return s.dur(), err
}

// begin opens a root span for a unit of work and returns its ID (0 when
// untraced) and a function that closes it.
func (t *tracer) begin(name string) (uint64, func()) {
	if t == nil {
		return 0, func() {}
	}
	s := span{ID: t.newID(), Name: name, Start: t.now()}
	return s.ID, func() {
		s.End = t.now()
		t.add(s)
	}
}

// view is the read side of a finished trace: spans by name, and the
// summed self time of each span's children.
type view struct {
	byName   map[string][]span
	children map[uint64]int64
	samples  map[string][]float64
	m        *obs.Metrics
}

func (t *tracer) view() view {
	v := view{byName: map[string][]span{}, children: map[uint64]int64{}, samples: map[string][]float64{}, m: t.m}
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, xs := range t.samples {
		v.samples[k] = append([]float64(nil), xs...)
	}
	for _, s := range t.spans {
		v.byName[s.Name] = append(v.byName[s.Name], s)
		if s.Parent != 0 {
			v.children[s.Parent] += s.dur()
		}
	}
	return v
}

func (v view) has(name string) bool { return len(v.byName[name]) > 0 }

// durs returns the durations of the named spans, in the given unit.
func (v view) durs(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range v.byName[name] {
		out = append(out, float64(s.dur())/float64(unit))
	}
	return out
}

// selfs returns each named span's self time: its duration minus the part
// its child spans cover.
func (v view) selfs(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range v.byName[name] {
		out = append(out, float64(s.dur()-v.children[s.ID])/float64(unit))
	}
	return out
}

// perOp is the summed duration of the named batch spans divided by the
// operations they cover, in nanoseconds.
func (v view) perOp(name string) float64 {
	var d, n int64
	for _, s := range v.byName[name] {
		d += s.dur()
		n += s.ops()
	}
	return ratio(float64(d), float64(n))
}

// ops is the number of operations the named spans cover.
func (v view) ops(name string) float64 {
	var n int64
	for _, s := range v.byName[name] {
		n += s.ops()
	}
	return float64(n)
}

// sum adds up the named samples.
func (v view) sum(name string) float64 {
	var t float64
	for _, x := range v.samples[name] {
		t += x
	}
	return t
}

func (v view) total(name string) float64 {
	var d int64
	for _, s := range v.byName[name] {
		d += s.dur()
	}
	return float64(d)
}

func (v view) count(c obs.Counter) float64 { return float64(v.m.Counter(c)) }

// write stores the spans as JSON lines, after one header line that
// identifies the run.
func (t *tracer) write(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// quantile is the nearest-rank q-quantile of xs (sorted in place); 0 for
// an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
