package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// numBuckets is the fixed bucket count of every histogram: bucket 0 holds
// values ≤ 0, bucket i (1 ≤ i ≤ numBuckets-2) holds values in
// [2^(i-1), 2^i - 1], and the last bucket is the +Inf overflow. The
// power-of-two geometry keeps Observe at a bits.Len64 — no search, no
// per-histogram bucket tables — while spanning 1 to 2^31 with ≤ 2×
// relative error, enough for search depths, slacks in model.Time units
// and utilities alike.
const numBuckets = 34

// bucketIndex maps a sample to its bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b > numBuckets-1 {
		return numBuckets - 1
	}
	return b
}

// BucketBound returns the inclusive upper bound of bucket i
// (math.MaxInt64 for the overflow bucket, 0 for the ≤0 bucket).
func BucketBound(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i >= numBuckets-1:
		return math.MaxInt64
	default:
		return int64(1)<<uint(i) - 1
	}
}

// hist is one atomic fixed-bucket histogram.
type hist struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// Metrics is the live Sink: fixed arrays of atomic counters and
// fixed-bucket histograms. It allocates only at construction and in
// Snapshot; the event path is an array index plus atomic adds, safe for
// any number of concurrent emitters. The zero value is NOT ready to use —
// construct with NewMetrics (the pointer identity is what emitters share).
type Metrics struct {
	counters [numCounters]atomic.Int64
	hists    [numHistograms]hist
}

// NewMetrics returns an empty collector.
func NewMetrics() *Metrics { return &Metrics{} }

// Add implements Sink.
func (m *Metrics) Add(c Counter, delta int64) {
	if c < 0 || c >= numCounters {
		return
	}
	m.counters[c].Add(delta)
}

// Observe implements Sink.
func (m *Metrics) Observe(h Histogram, v int64) { m.ObserveN(h, v, 1) }

// ObserveN implements Sink.
func (m *Metrics) ObserveN(h Histogram, v int64, n int64) {
	if h < 0 || h >= numHistograms || n <= 0 {
		return
	}
	hs := &m.hists[h]
	hs.buckets[bucketIndex(v)].Add(n)
	hs.count.Add(n)
	hs.sum.Add(v * n)
}

// Counter returns the current value of one counter.
func (m *Metrics) Counter(c Counter) int64 {
	if c < 0 || c >= numCounters {
		return 0
	}
	return m.counters[c].Load()
}

// Reset zeroes every counter and histogram. Not atomic with respect to
// concurrent emitters: totals observed across a Reset may be torn. Use it
// between phases of a CLI run, not under load.
func (m *Metrics) Reset() {
	for i := range m.counters {
		m.counters[i].Store(0)
	}
	for i := range m.hists {
		h := &m.hists[i]
		h.count.Store(0)
		h.sum.Store(0)
		for j := range h.buckets {
			h.buckets[j].Store(0)
		}
	}
}

// Bucket is one histogram bucket of a Snapshot: Count samples with value
// ≤ Le (non-cumulative; Le is math.MaxInt64 for the overflow bucket).
type Bucket struct {
	Le    int64
	Count int64
}

// HistogramSnapshot is the point-in-time state of one histogram.
type HistogramSnapshot struct {
	Count   int64
	Sum     int64
	Buckets []Bucket
}

// Snapshot is a point-in-time copy of a Metrics collector, keyed by the
// stable metric names. It is what the expvar endpoint serialises and what
// library users inspect programmatically.
type Snapshot struct {
	Counters   map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Snapshot copies the current state. Counters and histograms are read
// without a global lock, so a snapshot taken under load is per-metric
// consistent, not globally consistent — fine for monitoring.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64, int(numCounters)),
		Histograms: make(map[string]HistogramSnapshot, int(numHistograms)),
	}
	for c := Counter(0); c < numCounters; c++ {
		s.Counters[counterNames[c]] = m.counters[c].Load()
	}
	for h := Histogram(0); h < numHistograms; h++ {
		hs := &m.hists[h]
		snap := HistogramSnapshot{
			Count: hs.count.Load(),
			Sum:   hs.sum.Load(),
		}
		for i := range hs.buckets {
			if n := hs.buckets[i].Load(); n != 0 {
				snap.Buckets = append(snap.Buckets, Bucket{Le: BucketBound(i), Count: n})
			}
		}
		s.Histograms[histogramNames[h]] = snap
	}
	return s
}
