package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
)

// standInSweep registers a decomposed stand-in experiment and returns
// it. A job of it has params.N points, tagged with the job's
// params.Scale; each point calls run, and the merge renders the tag and
// the point count.
func standInSweep(name string, run func(ps experiments.PointSpec) error) experiments.Experiment {
	experiments.RegisterDecomposition(name, experiments.Decomposition{
		Points: func(rc experiments.RunConfig) []experiments.PointSpec {
			specs := make([]experiments.PointSpec, rc.N)
			for i := range specs {
				specs[i] = experiments.PointSpec{Machine: "PentiumPro", Procs: 1, Experiment: name, Index: i, N: rc.N, Scale: rc.Scale}
			}
			return specs
		},
		Run: func(_ context.Context, _ *experiments.PrefixState, ps experiments.PointSpec) (experiments.PointResult, error) {
			if err := run(ps); err != nil {
				return experiments.PointResult{}, err
			}
			return experiments.PointResult{Index: ps.Index, Cycles: int64(ps.Index)}, nil
		},
		Merge: func(rc experiments.RunConfig, results []experiments.PointResult) (experiments.Renderable, error) {
			return fakeResult{Value: fmt.Sprintf("%s scale=%g points=%d", name, rc.Scale, len(results))}, nil
		},
	})
	return experiments.Decomposed(name, "test stand-in sweep")
}

// atLeastTwoLanes raises GOMAXPROCS to 2 for the test, so a server
// built after it has a lane left beside a blocked point.
func atLeastTwoLanes(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// awaitMargin is how long before the test binary's -timeout deadline
// awaitDone gives up, leaving time to report the job's state before
// the binary panics.
const awaitMargin = 30 * time.Second

// awaitDone waits for job id to finish. The wait runs to the test
// binary's own deadline less awaitMargin rather than a fixed budget, so
// a slow job on a loaded host (a full -race run shares the cores with
// every other package) still finishes, and a hung one still fails with
// its state.
func awaitDone(t *testing.T, s *Server, id string) JobView {
	t.Helper()
	wait := time.Hour
	if dl, ok := t.Deadline(); ok {
		wait = max(time.Until(dl)-awaitMargin, time.Second)
	}
	v, _ := s.Await(id, wait, nil)
	if v.State != StateDone && v.State != StateFailed {
		t.Fatalf("job %s still %s after %v", id, v.State, wait.Round(time.Second))
	}
	return v
}

// TestOverlapNextJobStartsInTail pins the overlap rule: with one job
// worker, the next job's first point starts while the first job's last
// point is still running, and both jobs finish with their own results.
func TestOverlapNextJobStartsInTail(t *testing.T) {
	atLeastTwoLanes(t)
	release := make(chan struct{})
	secondStarted := make(chan struct{})
	var once sync.Once
	exp := standInSweep("overlap-tail", func(ps experiments.PointSpec) error {
		switch {
		case ps.Scale == 1 && ps.Index == ps.N-1:
			<-release
		case ps.Scale == 2 && ps.Index == 0:
			once.Do(func() { close(secondStarted) })
		}
		return nil
	})
	s, err := New(Config{Workers: 1, Experiments: []experiments.Experiment{exp}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	v1, err := s.Submit(exp.Name, JobParams{Scale: 1, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Submit(exp.Name, JobParams{Scale: 2, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-secondStarted:
	case <-time.After(30 * time.Second):
		close(release)
		t.Fatal("the second job never started while the first one's last point ran")
	}
	if v, _ := s.Job(v1.ID); v.State != StateRunning {
		t.Errorf("first job is %s when the second one started, want running", v.State)
	}
	close(release)
	for id, want := range map[string]string{v1.ID: "scale=1 points=3", v2.ID: "scale=2 points=3"} {
		v := awaitDone(t, s, id)
		if v.State != StateDone || !strings.Contains(string(v.Result), want) {
			t.Errorf("job %s: %s %s, want done with %q", id, v.State, v.Result, want)
		}
	}
	assertConservation(t, s)
}

// TestOverlapLanesBounded pins the lane budget: however many jobs
// overlap on two workers, the local points running at once never
// exceed GOMAXPROCS.
func TestOverlapLanesBounded(t *testing.T) {
	var running, peak atomic.Int32
	exp := standInSweep("overlap-lanes", func(ps experiments.PointSpec) error {
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(2 * time.Millisecond)
		running.Add(-1)
		return nil
	})
	s, err := New(Config{Workers: 2, Experiments: []experiments.Experiment{exp}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	var ids []string
	for job := 1; job <= 6; job++ {
		v, err := s.Submit(exp.Name, JobParams{Scale: float64(job), N: 5})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		if v := awaitDone(t, s, id); v.State != StateDone {
			t.Errorf("job %s: %s (%s)", id, v.State, v.Error)
		}
	}
	if p, lanes := peak.Load(), runtime.GOMAXPROCS(0); int(p) > lanes {
		t.Errorf("%d local points ran at once, want at most GOMAXPROCS = %d", p, lanes)
	}
}

// TestOverlapPerJobErrorAndProgress pins that overlapped jobs keep
// their own accounting: the failing job reports its lowest failing
// index, not the first failure to finish, and the job beside it reports
// its own complete progress.
func TestOverlapPerJobErrorAndProgress(t *testing.T) {
	atLeastTwoLanes(t)
	exp := standInSweep("overlap-errors", func(ps experiments.PointSpec) error {
		if ps.Scale != 1 {
			return nil
		}
		switch ps.Index {
		case 2:
			time.Sleep(20 * time.Millisecond) // fails after index 3 does
			return fmt.Errorf("point 2 failed")
		case 3:
			return fmt.Errorf("point 3 failed")
		}
		return nil
	})
	s, err := New(Config{Workers: 1, Experiments: []experiments.Experiment{exp}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	bad, err := s.Submit(exp.Name, JobParams{Scale: 1, N: 6})
	if err != nil {
		t.Fatal(err)
	}
	good, err := s.Submit(exp.Name, JobParams{Scale: 2, N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if v := awaitDone(t, s, bad.ID); v.State != StateFailed || !strings.Contains(v.Error, "point 2 failed") {
		t.Errorf("failing job: %s %q, want failed with point 2's error", v.State, v.Error)
	}
	if v := awaitDone(t, s, good.ID); v.State != StateDone {
		t.Errorf("job beside it: %s (%s), want done", v.State, v.Error)
	}
	s.mu.Lock()
	badProg, goodProg := s.jobs[bad.ID].progress(), s.jobs[good.ID].progress()
	s.mu.Unlock()
	if goodProg == nil || goodProg.PointsDone != 5 || goodProg.PointsTotal != 5 {
		t.Errorf("job beside it ended at progress %+v, want 5/5", goodProg)
	}
	if badProg == nil || badProg.PointsTotal != 6 || badProg.PointsDone > 6 {
		t.Errorf("failing job ended at progress %+v, want a total of 6", badProg)
	}
	assertConservation(t, s)
}

// TestOverlapShutdownDrains pins that Shutdown drains an overlapped
// pair: it waits for the first job's blocked tail and the second job
// beside it, and both finish done.
func TestOverlapShutdownDrains(t *testing.T) {
	atLeastTwoLanes(t)
	release := make(chan struct{})
	secondStarted := make(chan struct{})
	var once sync.Once
	exp := standInSweep("overlap-drain", func(ps experiments.PointSpec) error {
		switch {
		case ps.Scale == 1 && ps.Index == ps.N-1:
			<-release
		case ps.Scale == 2:
			once.Do(func() { close(secondStarted) })
		}
		return nil
	})
	s, err := New(Config{Workers: 1, Experiments: []experiments.Experiment{exp}})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := s.Submit(exp.Name, JobParams{Scale: 1, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Submit(exp.Name, JobParams{Scale: 2, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	<-secondStarted
	stopped := make(chan error, 1)
	go func() { stopped <- s.Shutdown(context.Background()) }()
	select {
	case err := <-stopped:
		t.Fatalf("Shutdown returned %v with the first job's tail still running", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-stopped; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	for _, id := range []string{v1.ID, v2.ID} {
		if v, _ := s.Job(id); v.State != StateDone {
			t.Errorf("job %s: %s (%s) after the drain, want done", id, v.State, v.Error)
		}
	}
	assertConservation(t, s)
}

// readGolden reads one of the experiments package's golden files:
// "<experiment> scale=<s>" → SHA-256 of the result as cascade-sim -json
// prints it, which is the server's result bytes.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(b, &golden); err != nil {
		t.Fatal(err)
	}
	return golden
}

// TestServerGoldenWhole pins the bytes of quickstart and table1, the
// experiments that simulate machines whole rather than sweep them,
// served as server jobs against the hashes the experiments package
// keeps for them (cascade-sim -json at scale 0.01).
func TestServerGoldenWhole(t *testing.T) {
	golden := readGolden(t, "../experiments/testdata/golden.json")
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	for _, name := range []string{"quickstart", "table1"} {
		v, err := s.Submit(name, JobParams{Scale: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		v = awaitDone(t, s, v.ID)
		sum := sha256.Sum256(v.Result)
		if got, want := hex.EncodeToString(sum[:]), golden[name+" scale=0.01"]; got != want {
			t.Errorf("%s job: hash %.12s, golden %.12s", name, got, want)
		}
	}
}

// TestServerJobsShareCalls pins the server-lifetime prefix cache: a
// fig3 job after a fig6 job at the same scale builds no prefix and
// simulates no PARMVR call, the prefix.* gauges say so once each local
// job finishes, and both jobs serve their golden bytes.
func TestServerJobsShareCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweeps")
	}
	golden := readGolden(t, "../experiments/testdata/golden.json")
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	rc := JobParams{Scale: 0.01}.WithDefaults().RunConfig()
	fig6, _ := experiments.Decompose("fig6", rc)
	for _, name := range []string{"fig6", "fig3"} {
		v, err := s.Submit(name, JobParams{Scale: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		v = awaitDone(t, s, v.ID)
		sum := sha256.Sum256(v.Result)
		if got, want := hex.EncodeToString(sum[:]), golden[name+" scale=0.01"]; got != want {
			t.Errorf("%s job: hash %.12s, golden %.12s", name, got, want)
		}
	}
	m := s.Metrics()
	want := map[string]int64{
		mPrefixMisses:     int64(len(experiments.Machines())), // fig6's prefixes only
		mPrefixCallMisses: int64(len(fig6)),                   // fig6's calls only
		mPrefixCallHits:   6,                                  // every fig3 call
	}
	for name, n := range want {
		if got := m.Get(name); got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
}
