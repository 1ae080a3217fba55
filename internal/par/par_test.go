package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEveryIndexOnce: every index runs exactly once, for worker counts
// below, at and above n.
func TestForEveryIndexOnce(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 3, 8, 2 * n} {
		visited := make([]int32, n)
		err := For(context.Background(), n, workers, func(int) func(int) error {
			return func(i int) error {
				atomic.AddInt32(&visited[i], 1)
				return nil
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range visited {
			if v != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, v)
			}
		}
	}
}

// TestForWorkerCount: newWorker runs exactly once per worker, and the
// worker count is clamped to [1, n].
func TestForWorkerCount(t *testing.T) {
	for _, tc := range []struct{ n, workers, want int }{
		{10, 4, 4},
		{3, 8, 3},   // workers > n
		{10, 0, 1},  // workers <= 0
		{10, -5, 1}, // workers <= 0
		{1, 1, 1},
	} {
		calls := make([]int32, max(tc.workers, 1))
		var built atomic.Int32
		err := For(context.Background(), tc.n, tc.workers, func(w int) func(int) error {
			built.Add(1)
			atomic.AddInt32(&calls[w], 1)
			return func(int) error { return nil }
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := int(built.Load()); got != tc.want {
			t.Errorf("n=%d workers=%d: newWorker ran %d times, want %d", tc.n, tc.workers, got, tc.want)
		}
		for w := 0; w < tc.want; w++ {
			if calls[w] != 1 {
				t.Errorf("n=%d workers=%d: worker %d built %d times", tc.n, tc.workers, w, calls[w])
			}
		}
	}
}

// TestForEmpty: n = 0 builds no worker and runs nothing.
func TestForEmpty(t *testing.T) {
	for _, n := range []int{0, -1} {
		err := For(context.Background(), n, 4, func(int) func(int) error {
			t.Fatalf("n=%d: newWorker called", n)
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestForFirstError: a failing index is returned, its worker runs no
// further index, and the run stops well short of n.
func TestForFirstError(t *testing.T) {
	boom := errors.New("boom")
	const n = 1 << 20
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := For(context.Background(), n, workers, func(int) func(int) error {
			failedHere := false
			return func(i int) error {
				if failedHere {
					t.Errorf("workers=%d: worker ran index %d after its error", workers, i)
				}
				ran.Add(1)
				if i == 5 {
					failedHere = true
					return boom
				}
				return nil
			}
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, boom)
		}
		if got := ran.Load(); got >= n {
			t.Errorf("workers=%d: all %d indices ran despite the error", workers, got)
		}
	}
}

// TestForCancel: a cancelled context returns ctx.Err() — up front and mid
// run — and leaves no goroutine behind.
func TestForCancel(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := For(ctx, 100, 4, func(int) func(int) error {
		return func(int) error { ran = true; return nil }
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("pre-cancelled: an index ran")
	}

	ctx, cancel = context.WithCancel(context.Background())
	var count atomic.Int32
	err = For(ctx, 100000, 4, func(int) func(int) error {
		return func(i int) error {
			if count.Add(1) == 50 {
				cancel()
			}
			return nil
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run: err = %v, want context.Canceled", err)
	}
	if got := count.Load(); got >= 100000 {
		t.Errorf("all %d indices ran despite cancellation", got)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}
}
