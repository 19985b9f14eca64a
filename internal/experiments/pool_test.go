package experiments

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// runIndices runs fn over [0, n) through the experiment pool, the
// indices handed out in ascending order by a queue of prefix-less specs.
func runIndices(ctx context.Context, n int, fn func(i int) error) error {
	return runPool(ctx, n, NewPointQueue(make([]PointSpec, n)), fn)
}

func TestParallelForCoversAllIndices(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const n = 1000
	var hits [n]int32
	if err := runIndices(context.Background(), n, func(i int) error {
		atomic.AddInt32(&hits[i], 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

func TestParallelForPropagatesError(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	boom := errors.New("boom")
	err := runIndices(context.Background(), 100, func(i int) error {
		if i == 57 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestParallelForSerialFallback(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	count := 0
	if err := runIndices(context.Background(), 10, func(i int) error {
		count++ // safe: serial path
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("count = %d", count)
	}
}

func TestParallelForZero(t *testing.T) {
	if err := runIndices(context.Background(), 0, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("err = %v", err)
	}
}

func TestParallelForFirstErrorByIndex(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	errLow := errors.New("low")
	errHigh := errors.New("high")
	// Both indices fail; regardless of completion order the lower index's
	// error must be returned. The high index fails instantly while the low
	// one is delayed, biasing completion order against the expected result.
	for trial := 0; trial < 30; trial++ {
		err := runIndices(context.Background(), 100, func(i int) error {
			switch i {
			case 30:
				time.Sleep(200 * time.Microsecond)
				return errLow
			case 31:
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("trial %d: err = %v, want the lowest-index error", trial, err)
		}
	}
}

func TestParallelForCancelsAfterError(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	boom := errors.New("boom")
	const n = 100000
	var ran int32
	err := runIndices(context.Background(), n, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 0 {
			return boom
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := atomic.LoadInt32(&ran); got > n/2 {
		t.Errorf("%d of %d points ran after early failure; cancellation not effective", got, n)
	}
}

func TestParallelForContextCancel(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	ctx, cancel := context.WithCancel(context.Background())
	const n = 100000
	var ran int32
	err := runIndices(ctx, n, func(i int) error {
		if atomic.AddInt32(&ran, 1) == 10 {
			cancel()
		}
		time.Sleep(50 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := atomic.LoadInt32(&ran); got > n/2 {
		t.Errorf("%d of %d points ran after cancel; cancellation not effective", got, n)
	}
}

func TestParallelForSerialContextCancel(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	err := runIndices(ctx, 100, func(i int) error {
		ran++
		if ran == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 5 {
		t.Errorf("ran = %d, want 5 (no index after cancel)", ran)
	}
}

// TestParallelForContainsPanics pins the failure model the serving
// daemon depends on: a panicking sweep point becomes that point's error
// (lowest failing index, stack attached) instead of killing the
// process, on both the parallel and serial paths.
func TestParallelForContainsPanics(t *testing.T) {
	for name, procs := range map[string]int{"parallel": 4, "serial": 1} {
		t.Run(name, func(t *testing.T) {
			old := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(old)
			err := runIndices(context.Background(), 100, func(i int) error {
				if i == 7 {
					panic("kaboom")
				}
				return nil
			})
			if err == nil {
				t.Fatal("panic was swallowed")
			}
			msg := err.Error()
			if !strings.Contains(msg, "point 7 panicked") || !strings.Contains(msg, "kaboom") {
				t.Errorf("err = %q, want point index and panic value", msg)
			}
			if !strings.Contains(msg, "pool_test.go") {
				t.Errorf("err lacks a stack trace:\n%s", msg)
			}
		})
	}
}

// TestParallelForPanicBeatsLaterError pins that a panic participates in
// the lowest-failing-index rule like any other error.
func TestParallelForPanicBeatsLaterError(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	boom := errors.New("boom")
	err := runIndices(context.Background(), 100, func(i int) error {
		switch i {
		case 10:
			time.Sleep(200 * time.Microsecond)
			panic("early panic")
		case 11:
			return boom
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "point 10 panicked") {
		t.Errorf("err = %v, want the lower-index panic to win", err)
	}
}

func TestParallelForErrorBeatsCancel(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := runIndices(ctx, 100, func(i int) error {
		if i == 3 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the fn error to win over cancellation", err)
	}
}

// TestPoolProgressInOrder pins that a sweep reports its progress in
// order: with four lanes finishing points at once, every report is one
// more than the last, so the final report says the sweep is complete.
func TestPoolProgressInOrder(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const n = 2000
	var got []int
	ctx := WithPointProgress(context.Background(), func(done, total int) {
		got = append(got, done) // unsynchronized: the pool serializes the calls
	})
	if err := runIndices(ctx, n, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("%d progress reports, want %d", len(got), n)
	}
	for i, done := range got {
		if done != i+1 {
			t.Fatalf("report %d says %d points done, want %d", i, done, i+1)
		}
	}
}
