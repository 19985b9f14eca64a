package experiments

import (
	"strings"
	"testing"
)

func TestQuickstartRowsAndMetrics(t *testing.T) {
	r, err := Quickstart(testCtx(), quickstartConfig(1<<14))
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 1<<14 {
		t.Fatalf("N = %d, want %d", r.N, 1<<14)
	}
	if len(r.Rows) != len(Strategies) {
		t.Fatalf("got %d rows, want %d", len(r.Rows), len(Strategies))
	}
	if r.Procs != 4 {
		t.Fatalf("Procs = %d, want 4", r.Procs)
	}
	seq := r.Rows[0]
	if seq.Strategy != Sequential || seq.Speedup != 1.0 {
		t.Errorf("first row = %v speedup %v, want Sequential at 1.0", seq.Strategy, seq.Speedup)
	}
	if got := seq.Metrics.Get("cascade.p0.exec"); got != seq.Cycles {
		t.Errorf("sequential p0 exec = %d, want %d", got, seq.Cycles)
	}
	for _, row := range r.Rows[1:] {
		if row.Cycles <= 0 {
			t.Errorf("%v: cycles = %d", row.Strategy, row.Cycles)
		}
		if row.Metrics.Get("cascade.total.exec") == 0 {
			t.Errorf("%v: snapshot has no exec cycles", row.Strategy)
		}
		if row.Metrics.Get("cascade.total.helper") == 0 {
			t.Errorf("%v: snapshot has no helper cycles", row.Strategy)
		}
		// With more chunks than processors every processor executes.
		if row.Chunks >= r.Procs {
			for p := 0; p < r.Procs; p++ {
				if row.Metrics.Get("cascade.p"+itoa(p)+".exec") == 0 {
					t.Errorf("%v: processor %d never charged exec", row.Strategy, p)
				}
			}
		}
	}
}

func TestQuickstartRender(t *testing.T) {
	r, err := Quickstart(testCtx(), quickstartConfig(1<<13))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	r.Render(&sb)
	out := sb.String()
	for _, want := range []string{
		"Quickstart", "Original Sequential", "Prefetched", "Restructured",
		"per-processor cycles and misses", "helper", "exec", "transfer",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

// quickstartConfig is the run configuration of an n-iteration
// quickstart (n a power of two, at least 1<<10) with 8KB chunks.
func quickstartConfig(n int) RunConfig {
	rc := DefaultRunConfig()
	rc.Scale = float64(n) / QuickstartN
	rc.ChunkBytes = 8 * 1024
	return rc
}
