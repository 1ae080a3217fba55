package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 30, 31}, {math.MaxInt64, numBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every sample must fall within its bucket's bounds.
	for _, v := range []int64{0, 1, 2, 3, 5, 100, 65535, 1 << 40} {
		i := bucketIndex(v)
		if v > BucketBound(i) {
			t.Errorf("value %d above bound %d of its bucket %d", v, BucketBound(i), i)
		}
		if i > 0 && v <= BucketBound(i-1) {
			t.Errorf("value %d also fits bucket %d", v, i-1)
		}
	}
}

func TestMetricsCountersAndHistograms(t *testing.T) {
	m := NewMetrics()
	m.Add(DispatchCycles, 3)
	m.Add(DispatchCycles, 2)
	m.Observe(DispatchHardSlack, 10)
	m.ObserveN(DispatchHardSlack, -4, 2)
	if got := m.Counter(DispatchCycles); got != 5 {
		t.Errorf("DispatchCycles = %d, want 5", got)
	}
	s := m.Snapshot()
	if got := s.Counters[DispatchCycles.Name()]; got != 5 {
		t.Errorf("snapshot counter = %d, want 5", got)
	}
	hs := s.Histograms[DispatchHardSlack.Name()]
	if hs.Count != 3 || hs.Sum != 10-8 {
		t.Errorf("histogram count/sum = %d/%d, want 3/2", hs.Count, hs.Sum)
	}
	var le0 int64
	for _, b := range hs.Buckets {
		if b.Le == 0 {
			le0 = b.Count
		}
	}
	if le0 != 2 {
		t.Errorf("≤0 bucket holds %d samples, want 2 (negative slack)", le0)
	}

	m.Reset()
	s = m.Snapshot()
	if s.Counters[DispatchCycles.Name()] != 0 || s.Histograms[DispatchHardSlack.Name()].Count != 0 {
		t.Error("Reset left state behind")
	}
}

func TestMetricsOutOfRangeIgnored(t *testing.T) {
	m := NewMetrics()
	m.Add(Counter(-1), 1)
	m.Add(numCounters, 1)
	m.Observe(Histogram(-1), 1)
	m.Observe(numHistograms, 1)
	m.ObserveN(MCUtility, 1, 0) // n <= 0 is a no-op
	s := m.Snapshot()
	for name, v := range s.Counters {
		if v != 0 {
			t.Errorf("counter %s = %d after out-of-range writes", name, v)
		}
	}
	if s.Histograms[MCUtility.Name()].Count != 0 {
		t.Error("ObserveN with n=0 recorded samples")
	}
}

func TestMetricsConcurrentEmitters(t *testing.T) {
	m := NewMetrics()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Add(MCScenarios, 1)
				m.Observe(MCUtility, int64(i%37))
			}
		}()
	}
	wg.Wait()
	if got := m.Counter(MCScenarios); got != workers*per {
		t.Errorf("MCScenarios = %d, want %d", got, workers*per)
	}
	if got := m.Snapshot().Histograms[MCUtility.Name()].Count; got != workers*per {
		t.Errorf("MCUtility count = %d, want %d", got, workers*per)
	}
}

func TestSinkAllocFree(t *testing.T) {
	m := NewMetrics()
	var s Sink = m
	allocs := testing.AllocsPerRun(200, func() {
		s.Add(DispatchCycles, 1)
		s.Observe(DispatchGuardDepth, 3)
		s.ObserveN(DispatchHardSlack, 17, 4)
	})
	if allocs != 0 {
		t.Errorf("live sink allocates %.1f times per event batch, want 0", allocs)
	}
	var nop Sink = NopSink{}
	allocs = testing.AllocsPerRun(200, func() {
		nop.Add(DispatchCycles, 1)
		nop.Observe(DispatchGuardDepth, 3)
	})
	if allocs != 0 {
		t.Errorf("NopSink allocates %.1f times per event batch, want 0", allocs)
	}
}

func TestLive(t *testing.T) {
	if Live(nil) || Live(NopSink{}) {
		t.Error("nil / NopSink reported live")
	}
	if !Live(NewMetrics()) {
		t.Error("Metrics reported not live")
	}
}

func TestNamesComplete(t *testing.T) {
	for c := Counter(0); c < numCounters; c++ {
		if c.Name() == "" || counterHelp[c] == "" {
			t.Errorf("counter %d has no name or help", c)
		}
		if !strings.HasPrefix(c.Name(), "ftsched_") {
			t.Errorf("counter name %q lacks the ftsched_ prefix", c.Name())
		}
	}
	for h := Histogram(0); h < numHistograms; h++ {
		if h.Name() == "" || histogramHelp[h] == "" {
			t.Errorf("histogram %d has no name or help", h)
		}
	}
	if Counter(-1).Name() != "" || Histogram(99).Name() != "" {
		t.Error("out-of-range Name not empty")
	}
}
