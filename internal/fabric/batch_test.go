package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
)

// TestBatchedStreamProgress pins the ?wait granularity satellite: even
// with every point of a sweep riding one single lease, the streamed
// ndjson progress frames advance points_done per completed point —
// lease-level accounting would only ever show 0 or total.
func TestBatchedStreamProgress(t *testing.T) {
	const points = 6
	registerSweep("fab-batch-progress", points, func(ctx context.Context, ps experiments.PointSpec) (experiments.PointResult, error) {
		time.Sleep(20 * time.Millisecond) // space the outcome frames out
		return experiments.PointResult{Index: ps.Index, Cycles: int64(1000 + ps.Index)}, nil
	})
	url, stop := newWorker(t, "")
	defer stop()
	c, err := New(Config{
		Experiments:      []experiments.Experiment{syntheticExperiment("fab-batch-progress")},
		Batch:            points, // the whole sweep is one lease
		MaxInflight:      1,
		RetryBackoff:     5 * time.Millisecond,
		ProgressInterval: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	c.Register("w", url)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	_, env := httpSubmit(t, ts.URL, "", "fab-batch-progress", server.JobParams{N: 3})
	if env.Job == nil {
		t.Fatal("submit returned no job")
	}
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+env.Job.ID+"?wait=15s", nil)
	req.Header.Set(server.VersionHeader, server.APIVersion)
	req.Header.Set("Accept", server.NDJSONContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	partials := make(map[int]bool)
	var final server.Envelope
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var f server.Envelope
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		if f.Progress != nil && f.Progress.PointsDone > 0 && f.Progress.PointsDone < f.Progress.PointsTotal {
			partials[f.Progress.PointsDone] = true
		}
		final = f
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(partials) < 2 {
		t.Fatalf("progress under a single %d-point lease showed %d distinct partial values %v, want per-point advancement",
			points, len(partials), partials)
	}
	if final.Job == nil || final.Job.State != server.StateDone {
		t.Fatalf("final frame not a done job: %+v", final)
	}
	if want := expectedRender(t, "fab-batch-progress", server.JobParams{N: 3}); !jsonEqualCompact(t, final.Result, want) {
		t.Fatal("batched streamed result differs from single-node run")
	}
}

// TestChaosWorkerDeathMidBatch is the batched-lease chaos variant: a
// worker dies (connection reset) partway through streaming a lease that
// carries the whole sweep. The outcomes it delivered before dying must
// stand — only the unfinished remainder is retried — and the merged
// result stays byte-identical to a single-node run with the
// conservation identity exact:
//
//	assigned = 6 (first lease) + 3 (remainder) = completed 6 + retried 3.
func TestChaosWorkerDeathMidBatch(t *testing.T) {
	const points = 6
	const delivered = 3 // outcomes streamed before the connection dies
	release := make(chan struct{})
	var gate atomic.Bool // armed only for the fabric run, not the local reference run
	var execs [points]atomic.Int64
	registerSweep("fab-batch-chaos", points, func(ctx context.Context, ps experiments.PointSpec) (experiments.PointResult, error) {
		execs[ps.Index].Add(1)
		if ps.Index >= delivered && gate.Load() {
			select {
			case <-release:
			case <-ctx.Done():
				return experiments.PointResult{}, ctx.Err()
			}
		}
		return experiments.PointResult{Index: ps.Index, Cycles: int64(1000 + ps.Index*7 + ps.N)}, nil
	})

	s, err := server.New(server.Config{Workers: 4,
		Experiments: []experiments.Experiment{syntheticExperiment("fab-batch-chaos")}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ws := httptest.NewServer(s.Handler())
	defer ws.Close()

	c, err := New(Config{
		Experiments:  []experiments.Experiment{syntheticExperiment("fab-batch-chaos")},
		Batch:        points, // one lease carries the whole sweep
		MaxInflight:  1,
		RetryBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	c.Register("w", ws.URL)

	p := server.JobParams{N: 7}
	// Render the single-node answer first: it runs every point
	// in-process, and the execution counts below must see only the
	// fabric's dispatches.
	want := expectedRender(t, "fab-batch-chaos", p)
	for i := range execs {
		execs[i].Store(0)
	}
	gate.Store(true)
	v, err := c.Submit("", "fab-batch-chaos", p)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the first `delivered` outcomes have streamed back (the
	// next point blocks on release), then reset every connection: the
	// lease stream dies with the remainder undelivered.
	deadline := time.Now().Add(10 * time.Second)
	for c.Metrics().Get(mPointsCompleted) < delivered {
		if time.Now().After(deadline) {
			t.Fatal("lease never streamed its first outcomes")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ws.CloseClientConnections()
	close(release)

	v = awaitDone(t, c, v.ID)
	if !bytes.Equal(v.Result, want) {
		t.Fatalf("merged result after mid-batch death differs from single-node run:\n got: %q\nwant: %q", v.Result, want)
	}

	snap := c.Metrics()
	if got := snap.Get(mPointsRetried); got != points-delivered {
		t.Fatalf("points.retried = %d, want exactly the unfinished remainder %d", got, points-delivered)
	}
	if got := snap.Get(mPointsCompleted); got != points {
		t.Fatalf("points.completed = %d, want %d (each point exactly once)", got, points)
	}
	if got := snap.Get(mPointsAssigned); got != points+(points-delivered) {
		t.Fatalf("points.assigned = %d, want %d", got, points+(points-delivered))
	}
	if got := snap.Get(mPointsFailed); got != 0 {
		t.Fatalf("points.failed = %d, want 0 (death must retry, not fail)", got)
	}
	if a, cmp, rt, f := snap.Get(mPointsAssigned), snap.Get(mPointsCompleted), snap.Get(mPointsRetried), snap.Get(mPointsFailed); a != cmp+rt+f {
		t.Fatalf("conservation violated: assigned %d != completed %d + retried %d + failed %d", a, cmp, rt, f)
	}

	// The pin that makes this the *remainder-only* test: outcomes the
	// worker delivered before dying were never re-dispatched, so their
	// points executed exactly once.
	for i := 0; i < delivered; i++ {
		if got := execs[i].Load(); got != 1 {
			t.Errorf("delivered point %d executed %d times, want 1 (must not ride the retry)", i, got)
		}
	}
	for i := delivered; i < points; i++ {
		if got := execs[i].Load(); got < 1 || got > 2 {
			t.Errorf("remainder point %d executed %d times, want 1 or 2", i, got)
		}
	}
}

// FuzzShipBatch feeds shipBatch arbitrary worker replies, served both as
// a plain envelope and as an ndjson stream. Decoding must never panic,
// never deliver an outcome for a position outside the batch, never
// deliver two for one position (a lease closed twice), and so never
// deliver more outcomes than points shipped. The seeds are the frames a
// worker sends in the batch tests above, plus refusals, per-point
// errors, duplicate and out-of-range positions, and a torn stream.
func FuzzShipBatch(f *testing.F) {
	frame := func(outcomes ...server.PointOutcome) []byte {
		b, _ := json.Marshal(server.Envelope{Outcomes: outcomes})
		return append(b, '\n')
	}
	ok := func(i int) server.PointOutcome {
		return server.PointOutcome{Index: i, Point: &experiments.PointResult{Index: i, Cycles: int64(1000 + i*7)}}
	}
	refusal, _ := json.Marshal(server.Envelope{Error: &server.APIError{
		Code: server.CodeQueueFull, Message: "point admission saturated"}})
	stream := bytes.Join([][]byte{frame(ok(0)), frame(ok(1)), frame(ok(2))}, nil)
	for _, seed := range [][]byte{
		stream,
		frame(ok(0), ok(1), ok(2)),
		frame(ok(0), server.PointOutcome{Index: 1, Error: &server.APIError{
			Code: server.CodeBadRequest, Message: "missing point spec"}}),
		refusal,
		frame(ok(0), ok(0), ok(3), ok(-1)),
		stream[:len(stream)-7],
	} {
		f.Add(seed, false)
		f.Add(seed, true)
	}

	var mu sync.Mutex
	var reply []byte
	var ndjson bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		body, nd := reply, ndjson
		mu.Unlock()
		if nd {
			w.Header().Set("Content-Type", server.NDJSONContentType)
		} else {
			w.Header().Set("Content-Type", "application/json")
		}
		w.Write(body)
	}))
	defer ts.Close()
	c, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	items := make([]leaseItem, 3)
	for i := range items {
		items[i] = leaseItem{idx: i, key: fmt.Sprintf("%064d", i),
			spec: experiments.PointSpec{Experiment: "fuzz", Index: i}}
	}

	f.Fuzz(func(t *testing.T, body []byte, nd bool) {
		mu.Lock()
		reply, ndjson = body, nd
		mu.Unlock()
		closed := make([]bool, len(items))
		_ = c.shipBatch(ts.URL, items, func(pos int, o server.PointOutcome) {
			if pos < 0 || pos >= len(items) {
				t.Fatalf("outcome delivered for position %d of a %d-point batch", pos, len(items))
			}
			if closed[pos] {
				t.Fatalf("position %d closed twice", pos)
			}
			closed[pos] = true
		})
	})
}
