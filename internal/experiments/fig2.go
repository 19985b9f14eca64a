package experiments

import (
	"context"
	"io"

	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/wave5"
)

// Fig2Point is one point of Figure 2: the overall speedup of the PARMVR
// subroutine under cascaded execution with a given helper and processor
// count, relative to sequential execution of the original code.
type Fig2Point struct {
	Machine  string
	Strategy Strategy
	Procs    int
	Speedup  float64
	// HelperCompletion is the fraction of helper iterations that finished
	// before their processor was signaled (diagnostic; not in the paper's
	// plot but explains its processor scaling).
	HelperCompletion float64
	// Metrics is the registry snapshot for this point, summed over the
	// fifteen PARMVR loops: per-processor cache/TLB/victim counters, bus
	// traffic, and cascade phase cycles.
	Metrics metrics.Snapshot `json:",omitempty"`
}

// Fig2Result holds the Figure 2 sweep for both machines.
type Fig2Result struct {
	Params     wave5.Params
	ChunkBytes int
	Baselines  map[string]int64 // sequential PARMVR cycles per machine
	Points     []Fig2Point
}

// Fig2 reproduces Figure 2: overall PARMVR speedup for 2..4 processors on
// the Pentium Pro and 2..8 on the R10000, for both helper strategies,
// with rc.ChunkBytes chunks (the paper's best is cascade.DefaultChunkBytes)
// on the dataset at rc.Scale. It runs the decomposed sweep (fig2Points,
// RunDecomposed's pool and prefix cache, fig2Merge).
func Fig2(ctx context.Context, rc RunConfig) (*Fig2Result, error) {
	return runAs[*Fig2Result](ctx, "fig2", rc)
}

// Speedup returns the recorded speedup for a configuration, or 0 if the
// sweep did not include it.
func (r *Fig2Result) Speedup(machineName string, strat Strategy, procs int) float64 {
	return r.find(machineName, strat, procs).Speedup
}

// Render writes the Figure 2 series as one table per machine, one row per
// processor count, matching the paper's two panels.
func (r *Fig2Result) Render(w io.Writer) {
	for _, cfg := range Machines() {
		t := report.NewTable(
			"Figure 2. Overall speedup for PARMVR — "+cfg.Name+
				" (chunks "+report.KB(r.ChunkBytes)+")",
			"Processors", "Prefetched", "Restructured", "helper done (P/R)")
		for _, procs := range procSweep(cfg) {
			pre := r.find(cfg.Name, Prefetched, procs)
			res := r.find(cfg.Name, Restructured, procs)
			t.Addf(procs, pre.Speedup, res.Speedup,
				report.Float(pre.HelperCompletion)+"/"+report.Float(res.HelperCompletion))
		}
		t.Render(w)
		io.WriteString(w, "\n")
	}
}

func (r *Fig2Result) find(m string, s Strategy, procs int) Fig2Point {
	for _, pt := range r.Points {
		if pt.Machine == m && pt.Strategy == s && pt.Procs == procs {
			return pt
		}
	}
	return Fig2Point{}
}
