package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPrefixMemoAcrossSweeps is the call memo's differential test. fig6,
// fig3, fig4, fig5 and fig2 at one scale run through one shared
// PrefixCache, then again in reverse order through a fresh one. Every
// point's JSON must equal a RunPoint of it off a private state, every merged result
// must match golden.json, and the memo must show that fig3-5 simulated
// no call of their own after fig6 (and fig3, fig4 none after fig5).
func TestPrefixMemoAcrossSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweeps")
	}
	golden := loadGolden(t)
	ctx := context.Background()
	rc := DefaultRunConfig()
	rc.Scale = 0.01
	order := []string{"fig6", "fig3", "fig4", "fig5", "fig2"}

	cold := map[string][][]byte{}
	for _, name := range order {
		specs, _ := Decompose(name, rc)
		out := make([][]byte, len(specs))
		if err := runIndices(ctx, len(specs), func(i int) error {
			r, err := RunPoint(ctx, specs[i])
			if err != nil {
				return err
			}
			out[i], err = json.Marshal(r)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		cold[name] = out
	}

	for pass, names := range [][]string{order, reversed(order)} {
		c := NewPrefixCache(0)
		reused := map[string]bool{"fig3": true, "fig4": true, "fig5": pass == 0}
		for _, name := range names {
			specs, _ := Decompose(name, rc)
			before := c.Stats()
			results := make([]PointResult, len(specs))
			for i, ps := range specs {
				r, warm, err := c.RunPoint(ctx, ps)
				if err != nil || !warm {
					t.Fatalf("pass %d %s point %d: warm=%v err=%v", pass, name, i, warm, err)
				}
				got, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, cold[name][i]) {
					t.Errorf("pass %d %s point %d: memoized JSON differs from a private-state RunPoint:\n got %s\nwant %s",
						pass, name, i, got, cold[name][i])
				}
				results[i] = r
			}
			merged, err := MergePoints(name, rc, results)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, golden, fmt.Sprintf("%s scale=%g", name, rc.Scale), "shared PrefixCache", merged)
			after := c.Stats()
			misses := after.CallMisses - before.CallMisses
			if reused[name] && misses != 0 {
				t.Errorf("pass %d %s: simulated %d calls, want 0 after the sweeps before it", pass, name, misses)
			}
			if hits := after.CallHits - before.CallHits; misses+hits != int64(len(specs)) {
				t.Errorf("pass %d %s: %d call misses + %d hits, want one per point (%d)", pass, name, misses, hits, len(specs))
			}
			if after.Bytes > after.MaxBytes {
				t.Errorf("pass %d %s: %d bytes cached over the %d ceiling", pass, name, after.Bytes, after.MaxBytes)
			}
		}
		// The production path under a holder: RunDecomposed over the
		// same cache simulates nothing and merges the golden bytes.
		before := c.Stats()
		hctx := WithHolder(ctx, NewHolder(c, runtime.GOMAXPROCS(0)))
		for _, name := range names {
			r, _, err := RunDecomposed(hctx, name, rc)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, golden, fmt.Sprintf("%s scale=%g", name, rc.Scale), "RunDecomposed under a holder", r)
		}
		if after := c.Stats(); after.CallMisses != before.CallMisses || after.Misses != before.Misses {
			t.Errorf("pass %d: RunDecomposed under the holder simulated %d calls and built %d prefixes, want 0",
				pass, after.CallMisses-before.CallMisses, after.Misses-before.Misses)
		}
	}
}

func reversed(s []string) []string {
	out := slices.Clone(s)
	slices.Reverse(out)
	return out
}

// memoState returns a state built by c through a stand-in build, so its
// calls are memoized and charged to c.
func memoState(t *testing.T, c *PrefixCache) *PrefixState {
	t.Helper()
	c.build = func(_ context.Context, spec PrefixSpec) (*PrefixState, error) {
		return &PrefixState{Spec: spec, mem: 1}, nil
	}
	st, err := c.state(context.Background(), PrefixSpec{Machine: Machines()[0].Name, Procs: 2, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPrefixMemoFailureNotStored pins that a failing call is not
// memoized: the next caller runs it again, and only the successful
// result is stored, counted and charged to the byte ceiling.
func TestPrefixMemoFailureNotStored(t *testing.T) {
	ctx := context.Background()
	c := NewPrefixCache(0)
	st := memoState(t, c)
	k := parmvrCall{Sequential.Token(), 64, ""}

	boom := errors.New("stand-in call failed")
	if _, err := st.memoCall(ctx, k, func() (PointResult, error) { return PointResult{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("failing call returned %v, want %v", err, boom)
	}
	runs := 0
	call := func() (PointResult, error) {
		runs++
		return PointResult{Cycles: 7, Loops: []LoopResult{{Loop: "l", Cycles: 7}}}, nil
	}
	for i := 0; i < 2; i++ {
		r, err := st.memoCall(ctx, k, call)
		if err != nil || r.Cycles != 7 {
			t.Fatalf("call %d: %+v, %v", i, r, err)
		}
	}
	if runs != 1 {
		t.Errorf("call ran %d times after the failure, want 1", runs)
	}
	s := c.Stats()
	if s.CallMisses != 2 || s.CallHits != 1 {
		t.Errorf("call stats %d misses, %d hits; want 2 and 1", s.CallMisses, s.CallHits)
	}
	stored := PointResult{Cycles: 7, Loops: []LoopResult{{Loop: "l", Cycles: 7}}}.memBytes()
	if s.Bytes != 1+stored || st.MemBytes() != 1+stored {
		t.Errorf("cache holds %d bytes, state %d; want the prefix's 1 plus the stored call's %d",
			s.Bytes, st.MemBytes(), stored)
	}
}

// TestPrefixMemoPanicReleasesWaiters pins that a panicking call releases
// everyone waiting on its flight with the panic as their error, goes on
// panicking on the runner's own goroutine, and stores nothing: the next
// caller runs the call again.
func TestPrefixMemoPanicReleasesWaiters(t *testing.T) {
	ctx := context.Background()
	c := NewPrefixCache(0)
	st := memoState(t, c)
	k := parmvrCall{Prefetched.Token(), 16, ""}

	started, release := make(chan struct{}), make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		st.memoCall(ctx, k, func() (PointResult, error) {
			close(started)
			<-release
			panic("stand-in call panicked")
		})
	}()
	<-started

	const waiters = 3
	errs := make(chan error, waiters)
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := st.memoCall(ctx, k, func() (PointResult, error) {
				t.Error("a waiter ran the call in flight")
				return PointResult{}, nil
			})
			errs <- err
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); c.Stats().CallHits < waiters; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("only %d of %d waiters joined the call in flight", c.Stats().CallHits, waiters)
		}
	}
	close(release)

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("waiters still blocked after the call panicked")
	}
	close(errs)
	for err := range errs {
		if err == nil || !strings.Contains(err.Error(), "stand-in call panicked") {
			t.Errorf("waiter got %v, want the panic as its error", err)
		}
	}
	if r := <-recovered; r != "stand-in call panicked" {
		t.Errorf("runner recovered %v, want its own panic", r)
	}
	r, err := st.memoCall(ctx, k, func() (PointResult, error) { return PointResult{Cycles: 3}, nil })
	if err != nil || r.Cycles != 3 {
		t.Errorf("caller after the panic got %+v, %v; want a fresh run", r, err)
	}
	if s := c.Stats(); s.CallMisses != 2 || s.CallHits != waiters {
		t.Errorf("call stats %d misses, %d hits; want 2 and %d", s.CallMisses, s.CallHits, waiters)
	}
}

// TestPrefixMemoWaiterOutlivesCancelledRunner pins that a waiter with a
// live context never gets another caller's cancellation: the runner's
// call fails with its own ctx.Err(), and the waiter that joined its
// flight runs the call again and gets the result.
func TestPrefixMemoWaiterOutlivesCancelledRunner(t *testing.T) {
	c := NewPrefixCache(0)
	st := memoState(t, c)
	k := parmvrCall{Restructured.Token(), 64, ""}

	runCtx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	runnerErr := make(chan error, 1)
	go func() {
		_, err := st.memoCall(runCtx, k, func() (PointResult, error) {
			close(started)
			<-runCtx.Done()
			return PointResult{}, runCtx.Err()
		})
		runnerErr <- err
	}()
	<-started

	waiter := make(chan error, 1)
	var got PointResult
	go func() {
		var err error
		got, err = st.memoCall(context.Background(), k, func() (PointResult, error) {
			return PointResult{Cycles: 5}, nil
		})
		waiter <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); c.Stats().CallHits < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			cancel()
			t.Fatal("the waiter never joined the call in flight")
		}
	}
	cancel()

	if err := <-runnerErr; !errors.Is(err, context.Canceled) {
		t.Errorf("runner got %v, want its own context.Canceled", err)
	}
	select {
	case err := <-waiter:
		if err != nil || got.Cycles != 5 {
			t.Errorf("waiter got %+v, %v; want its own run's 5 cycles", got, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter still blocked after the runner was cancelled")
	}
	if s := c.Stats(); s.CallMisses != 2 || s.CallHits != 1 {
		t.Errorf("call stats %d misses, %d hits; want 2 and 1", s.CallMisses, s.CallHits)
	}
}
