package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
)

// leaseRecorder wraps a worker's handler and keeps the specs of every
// batched lease it is shipped, in arrival order.
type leaseRecorder struct {
	h      http.Handler
	mu     sync.Mutex
	leases [][]experiments.PointSpec
}

func (lr *leaseRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == "POST" && r.URL.Path == "/v1/points" {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req struct {
			Points []struct {
				Point experiments.PointSpec `json:"point"`
			} `json:"points"`
		}
		if json.Unmarshal(body, &req) == nil {
			var lease []experiments.PointSpec
			for _, p := range req.Points {
				lease = append(lease, p.Point)
			}
			lr.mu.Lock()
			lr.leases = append(lr.leases, lease)
			lr.mu.Unlock()
		}
	}
	lr.h.ServeHTTP(w, r)
}

// TestAffinityWarmsweepOneBuildPerWorker runs warmsweep (two prefix
// groups, one per machine) on two one-slot warm workers. Prefix-affine
// dispatch starts each worker on its own group, so their first leases
// differ in prefix and the fleet builds each prefix about once: at most
// three builds in all, where spec-order dispatch built both prefixes on
// both workers (four).
func TestAffinityWarmsweepOneBuildPerWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates warmsweep at scale 0.01")
	}
	c, err := New(Config{Experiments: experiments.Registry(), RetryBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	var workers []*server.Server
	var recs []*leaseRecorder
	for _, name := range []string{"w1", "w2"} {
		s, err := server.New(server.Config{Workers: 1, WarmPrefixes: true, Experiments: experiments.Registry()})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown(context.Background())
		lr := &leaseRecorder{h: s.Handler()}
		ts := httptest.NewServer(lr)
		defer ts.Close()
		if s.PointSlots() != 1 {
			t.Fatalf("worker advertises %d slots, want 1", s.PointSlots())
		}
		c.RegisterSlots(name, ts.URL, s.PointSlots())
		workers = append(workers, s)
		recs = append(recs, lr)
	}

	v, err := c.Submit("", "warmsweep", server.JobParams{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	v = awaitDone(t, c, v.ID)

	prefix := func(ps experiments.PointSpec) string { return ps.Machine }
	var first []string
	for i, lr := range recs {
		if len(lr.leases) == 0 || len(lr.leases[0]) == 0 {
			t.Fatalf("worker %d was shipped no lease", i+1)
		}
		first = append(first, prefix(lr.leases[0][0]))
	}
	if first[0] == first[1] {
		t.Fatalf("both workers' first leases come from prefix group %s; want one group each", first[0])
	}
	var misses int64
	for _, s := range workers {
		misses += s.Metrics().Get("prefix.misses")
	}
	if misses > 3 {
		t.Fatalf("workers built %d prefixes in all, want at most 3 for 2 prefix groups", misses)
	}
}

// TestLowestIndexErrorAcrossGroups pins the lowest-index error rule when
// the failing points sit in different prefix groups and the higher-index
// failure is in the group dispatched first: the local pool and a
// two-worker fleet must both report the lower index, however completion
// order falls.
func TestLowestIndexErrorAcrossGroups(t *testing.T) {
	const name = "fab-affine-fail"
	// Group A (PentiumPro) = {0, 3} is dispatched first; 3 fails at
	// once. Group B (R10000) = {1, 2}; 2 fails after a delay, so it
	// completes after 3.
	groups := []string{"PentiumPro", "R10000", "R10000", "PentiumPro"}
	experiments.RegisterDecomposition(name, experiments.Decomposition{
		Points: func(rc experiments.RunConfig) []experiments.PointSpec {
			specs := make([]experiments.PointSpec, len(groups))
			for i, g := range groups {
				specs[i] = experiments.PointSpec{Experiment: name, Index: i, Machine: g, Procs: 1, N: rc.N}
			}
			return specs
		},
		Run: func(_ context.Context, ps experiments.PointSpec) (experiments.PointResult, error) {
			switch ps.Index {
			case 2:
				time.Sleep(30 * time.Millisecond)
				fallthrough
			case 3:
				return experiments.PointResult{}, fmt.Errorf("stand-in failure at index %d", ps.Index)
			}
			return experiments.PointResult{Index: ps.Index, Cycles: 1}, nil
		},
		Merge: func(experiments.RunConfig, []experiments.PointResult) (experiments.Renderable, error) {
			return fakeResult{Value: name}, nil
		},
		Prefix: func(ps experiments.PointSpec) (experiments.PrefixSpec, bool) {
			return experiments.PrefixSpec{Machine: ps.Machine}, true
		},
	})
	const want = "stand-in failure at index 2"

	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("RunDecomposed/procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			_, _, err := experiments.RunDecomposed(context.Background(), name, experiments.RunConfig{N: procs})
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want %q", err, want)
			}
		})
	}

	t.Run("fleet", func(t *testing.T) {
		urlA, stopA := newWorker(t, "")
		defer stopA()
		urlB, stopB := newWorker(t, "")
		defer stopB()
		c, err := New(Config{
			Experiments:  []experiments.Experiment{syntheticExperiment(name)},
			RetryBackoff: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown(context.Background())
		c.Register("a", urlA)
		c.Register("b", urlB)
		v, err := c.Submit("", name, server.JobParams{N: 3})
		if err != nil {
			t.Fatal(err)
		}
		v, _ = c.Await(v.ID, 30*time.Second, nil)
		if v.State != server.StateFailed || !strings.HasPrefix(v.Error, "point 2:") || !strings.Contains(v.Error, want) {
			t.Fatalf("job finished %s with %q, want a failure of point 2", v.State, v.Error)
		}
	})
}
