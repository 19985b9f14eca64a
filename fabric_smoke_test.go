package repro_test

// Process-level smoke test for the distributed sweep fabric: builds the
// real cascade-coordinator and cascade-server binaries, boots a
// three-process fleet (one coordinator, two workers sharing a cache
// directory), runs a small fig6 sweep and a fig5 breakdown end-to-end
// with progress streaming, and diffs each merged result against the
// single-node driver's bytes.
//
// Gated behind FABRIC_SMOKE=1 (CI's fabric-smoke job, `make
// fabric-smoke` locally): it compiles binaries and binds TCP ports,
// which unit-test runs should not do implicitly.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
)

// fleetProc is one running fleet binary plus the address it reported.
type fleetProc struct {
	cmd  *exec.Cmd
	addr chan string // receives the "listening on http://..." address once
	logs *bytes.Buffer
	mu   sync.Mutex
}

// startProc launches a fleet binary and scans its stderr for the
// "listening on http://HOST:PORT" line.
func startProc(t *testing.T, bin string, args ...string) *fleetProc {
	t.Helper()
	p := &fleetProc{
		cmd:  exec.Command(bin, args...),
		addr: make(chan string, 1),
		logs: &bytes.Buffer{},
	}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", bin, err)
	}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			fmt.Fprintln(p.logs, line)
			p.mu.Unlock()
			if i := strings.Index(line, "listening on http://"); i >= 0 {
				select {
				case p.addr <- "http://" + strings.Fields(line[i+len("listening on http://"):])[0]:
				default:
				}
			}
		}
	}()
	t.Cleanup(func() {
		p.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { p.cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			p.cmd.Process.Kill()
			<-done
		}
	})
	return p
}

func (p *fleetProc) baseURL(t *testing.T) string {
	t.Helper()
	select {
	case a := <-p.addr:
		return a
	case <-time.After(15 * time.Second):
		p.mu.Lock()
		defer p.mu.Unlock()
		t.Fatalf("process never reported a listen address; logs:\n%s", p.logs.String())
		return ""
	}
}

func TestFabricSmoke(t *testing.T) { runFabricSmoke(t, 0, false) }

// TestFabricSmokeBatchedWarm reruns the fleet smoke with batched leases
// pinned at four points per dispatch and worker-side warm-prefix
// snapshot reuse enabled: the whole point of both optimizations is that
// the merged bytes cannot move, so the same single-node diff must pass.
func TestFabricSmokeBatchedWarm(t *testing.T) { runFabricSmoke(t, 4, true) }

func runFabricSmoke(t *testing.T, batch int, warm bool) {
	if os.Getenv("FABRIC_SMOKE") != "1" {
		t.Skip("set FABRIC_SMOKE=1 to run the process-level fleet smoke test")
	}

	// Build the real binaries.
	binDir := t.TempDir()
	for _, name := range []string{"cascade-coordinator", "cascade-server"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(binDir, name), "./cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
	}

	// Boot the fleet: one coordinator, two workers, one shared cache dir.
	cacheDir := t.TempDir()
	coordArgs := []string{"-addr", "127.0.0.1:0", "-cache", cacheDir, "-heartbeat-timeout", "10s"}
	if batch > 0 {
		coordArgs = append(coordArgs, "-batch", fmt.Sprint(batch))
	}
	coord := startProc(t, filepath.Join(binDir, "cascade-coordinator"), coordArgs...)
	coordURL := coord.baseURL(t)
	var workerURLs []string
	for i := 0; i < 2; i++ {
		wargs := []string{"-addr", "127.0.0.1:0", "-cache", cacheDir,
			"-coordinator", coordURL, "-name", fmt.Sprintf("w%d", i)}
		if warm {
			wargs = append(wargs, "-warm-prefixes")
		}
		w := startProc(t, filepath.Join(binDir, "cascade-server"), wargs...)
		workerURLs = append(workerURLs, w.baseURL(t))
	}

	// Wait for both workers to enlist.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(coordURL + "/v1/workers")
		if err != nil {
			t.Fatal(err)
		}
		var fleet struct {
			Workers []struct {
				Alive bool `json:"alive"`
			} `json:"workers"`
		}
		err = json.NewDecoder(resp.Body).Decode(&fleet)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		alive := 0
		for _, w := range fleet.Workers {
			if w.Alive {
				alive++
			}
		}
		if alive == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d workers enlisted", alive)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Run a small real sweep and a per-loop breakdown through the fleet;
	// each must match the single-node driver byte for byte.
	fleetDiff(t, coordURL, "fig6", server.JobParams{Scale: 0.02})
	fleetDiff(t, coordURL, "fig5", server.JobParams{Scale: 0.01})

	// Fleet metrics: points flowed, and the conservation identity holds.
	resp, err := http.Get(coordURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	vals := map[string]int{}
	for _, line := range strings.Split(string(metricsBody), "\n") {
		var name string
		var v int
		if _, err := fmt.Sscanf(line, "%s %d", &name, &v); err == nil {
			vals[name] = v
		}
	}
	if vals["fabric.points.completed"] == 0 {
		t.Fatalf("no points completed; metrics:\n%s", metricsBody)
	}
	if a, c, r, f := vals["fabric.points.assigned"], vals["fabric.points.completed"],
		vals["fabric.points.retried"], vals["fabric.points.failed"]; a != c+r+f {
		t.Fatalf("conservation violated: assigned %d != completed %d + retried %d + failed %d", a, c, r, f)
	}
	if vals["fabric.jobs.completed"] != 2 {
		t.Fatalf("jobs.completed = %d, want 2", vals["fabric.jobs.completed"])
	}
	if batch > 0 && vals["fabric.batches.dispatched"] == 0 {
		t.Fatalf("no batched leases dispatched; metrics:\n%s", metricsBody)
	}

	// With warm prefixes on, at least one worker must have retired points
	// through the snapshot-fork path (points.warm) — byte identity above
	// proves it changed nothing.
	if warm {
		warmPoints := 0
		for _, wu := range workerURLs {
			resp, err := http.Get(wu + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			wb, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			for _, line := range strings.Split(string(wb), "\n") {
				var name string
				var v int
				if _, err := fmt.Sscanf(line, "%s %d", &name, &v); err == nil && name == "points.warm" {
					warmPoints += v
				}
			}
		}
		if warmPoints == 0 {
			t.Fatal("warm-prefix fleet retired no points through the warm path")
		}
	}
}

// fleetDiff submits one job to the coordinator, streams it to
// completion, and diffs the merged result against RunDecomposed, both
// as returned and as served from the shared cache index.
func fleetDiff(t *testing.T, coordURL, experiment string, params server.JobParams) {
	t.Helper()
	body, _ := json.Marshal(map[string]interface{}{"experiment": experiment, "params": params})
	resp, err := http.Post(coordURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted server.Envelope
	err = json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	if err != nil || submitted.Job == nil {
		t.Fatalf("%s submit: err=%v env=%+v", experiment, err, submitted)
	}

	req, _ := http.NewRequest("GET", coordURL+"/v1/jobs/"+submitted.Job.ID+"?wait=120s", nil)
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var frames []server.Envelope
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var f server.Envelope
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("%s: bad frame %q: %v", experiment, sc.Text(), err)
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 {
		t.Fatalf("%s: no ndjson frames", experiment)
	}
	final := frames[len(frames)-1]
	if final.Job == nil || final.Job.State != server.StateDone {
		t.Fatalf("%s final frame: %+v", experiment, final)
	}

	// Diff the merged result against the single-node driver.
	res, ok, err := experiments.RunDecomposed(context.Background(), experiment,
		params.WithDefaults().RunConfig())
	if err != nil || !ok {
		t.Fatalf("single-node %s: ok=%v err=%v", experiment, ok, err)
	}
	want, err := server.RenderJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var gotC, wantC bytes.Buffer
	if err := json.Compact(&gotC, final.Result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&wantC, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotC.Bytes(), wantC.Bytes()) {
		t.Fatalf("fleet %s result differs from single-node run:\n got: %s\nwant: %s", experiment, gotC.Bytes(), wantC.Bytes())
	}

	// The cached merged result must also serve byte-identically (the
	// indented cache rendering, straight off the shared index).
	resp, err = http.Get(coordURL + "/v1/cache/" + final.Job.Key)
	if err != nil {
		t.Fatal(err)
	}
	cached, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(cached, want) {
		t.Fatalf("%s shared cache index: status %d, identical=%v", experiment, resp.StatusCode, bytes.Equal(cached, want))
	}
}
