package experiments

import (
	"context"
	"io"

	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/wave5"
)

// Fig6ChunkSizesKB are the chunk sizes of Figure 6's x-axis.
var Fig6ChunkSizesKB = []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}

// Fig6Point is one point of Figure 6: overall PARMVR speedup at one chunk
// size on four processors.
type Fig6Point struct {
	Machine    string
	Strategy   Strategy
	ChunkBytes int
	Speedup    float64
	// Metrics is the registry snapshot for this point, summed over the
	// fifteen PARMVR loops.
	Metrics metrics.Snapshot `json:",omitempty"`
}

// Fig6Result holds the chunk-size sweep.
type Fig6Result struct {
	Params wave5.Params
	Procs  int
	Points []Fig6Point
}

// Fig6 reproduces Figure 6: the effect of chunk size (4KB-2048KB) on
// overall PARMVR speedup with four processors, for both helpers and both
// machines, on the dataset at rc.Scale. It runs the decomposed sweep
// (fig6Points, RunDecomposed's pool and prefix cache, fig6Merge).
func Fig6(ctx context.Context, rc RunConfig) (*Fig6Result, error) {
	return runAs[*Fig6Result](ctx, "fig6", rc)
}

// Speedup returns the sweep value for a configuration (0 if absent).
func (r *Fig6Result) Speedup(machineName string, strat Strategy, chunkBytes int) float64 {
	for _, pt := range r.Points {
		if pt.Machine == machineName && pt.Strategy == strat && pt.ChunkBytes == chunkBytes {
			return pt.Speedup
		}
	}
	return 0
}

// Best returns the chunk size with the highest speedup for a machine and
// strategy.
func (r *Fig6Result) Best(machineName string, strat Strategy) (chunkBytes int, speedup float64) {
	for _, pt := range r.Points {
		if pt.Machine != machineName || pt.Strategy != strat {
			continue
		}
		if pt.Speedup > speedup {
			speedup = pt.Speedup
			chunkBytes = pt.ChunkBytes
		}
	}
	return chunkBytes, speedup
}

// Render writes one table per machine: chunk size vs speedup per helper.
func (r *Fig6Result) Render(w io.Writer) {
	for _, cfg := range Machines() {
		t := report.NewTable(
			"Figure 6. Effect of chunk size ("+itoa(r.Procs)+" processors) — "+cfg.Name,
			"KBytes/chunk", "Prefetched", "Restructured")
		for _, kb := range Fig6ChunkSizesKB {
			t.Addf(itoa(kb),
				r.Speedup(cfg.Name, Prefetched, kb*1024),
				r.Speedup(cfg.Name, Restructured, kb*1024))
		}
		t.Render(w)
		io.WriteString(w, "\n")
	}
}
