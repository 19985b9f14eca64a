package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/cascade"
	"repro/internal/synthetic"
	"repro/internal/wave5"
)

// Renderable is the result of an experiment run. Every result renders
// itself as aligned text tables; results that also support CSV or ASCII
// chart output implement CSVRenderable or ChartRenderable, and JSON
// output is the result value itself (all result types marshal cleanly).
type Renderable interface {
	Render(w io.Writer)
}

// ChartRenderable is a result with an ASCII-chart rendering (figures).
type ChartRenderable interface {
	Renderable
	RenderChart(w io.Writer)
}

// CSVRenderable is a result with a CSV rendering (plain tables).
type CSVRenderable interface {
	Renderable
	RenderCSV(w io.Writer)
}

// RunConfig carries the experiment-independent knobs an Experiment.Run
// receives: every experiment interprets the subset it cares about, so one
// flag set drives the whole registry.
type RunConfig struct {
	// Scale shrinks the PARMVR dataset (1.0 = the paper-scale enlarged
	// dataset).
	Scale float64
	// ChunkBytes is the cascade chunk budget for experiments that take
	// one (fig2, breakdowns, quickstart, gallery, amdahl).
	ChunkBytes int
	// N is the array length for the synthetic loop (fig7) and the kernel
	// gallery.
	N int
	// Progress, when non-nil, receives human-readable progress lines.
	Progress func(format string, args ...interface{})
}

// Params returns the PARMVR dataset parameters at the configured scale.
func (rc RunConfig) Params() wave5.Params {
	return wave5.DefaultParams().Scaled(rc.Scale)
}

func (rc RunConfig) progress(format string, args ...interface{}) {
	if rc.Progress != nil {
		rc.Progress(format, args...)
	}
}

// Experiment is one registered reproduction: a name to dispatch on, a
// description for listings, and its run function. Every experiment is a
// decomposition (see Decomposition): Run decomposes it, runs its points
// through the pool and merges them, which is RunDecomposed; a caller may
// wrap Run, to trace it, say. Run respects ctx cancellation (in-flight
// simulation points finish; no new ones start).
type Experiment struct {
	Name        string
	Description string
	Run         func(ctx context.Context, rc RunConfig) (Renderable, error)
}

// Decomposed returns the experiment that runs the decomposition
// registered under name (see RegisterDecomposition).
func Decomposed(name, description string) Experiment {
	return Experiment{
		Name:        name,
		Description: description,
		Run: func(ctx context.Context, rc RunConfig) (Renderable, error) {
			rc.progress("%s: %s (scale %.2f, n=%d)...", name, description, rc.Scale, rc.N)
			r, ok, err := RunDecomposed(ctx, name, rc)
			if !ok {
				return nil, fmt.Errorf("experiment %q has no point decomposition", name)
			}
			return r, err
		},
	}
}

// Info is an experiment's exported metadata: what `cascade-sim -exp list`
// prints and what the serving daemon's GET /v1/experiments returns — one
// source of truth for both.
type Info struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Defaults    Defaults `json:"defaults"`
}

// Defaults are an experiment's default run parameters in the units
// clients supply them (chunk budget in KB, as on the cascade-sim command
// line and in the serving API's job parameters).
type Defaults struct {
	// Scale is the PARMVR dataset scale factor (1.0 = paper-scale).
	Scale float64 `json:"scale"`
	// ChunkKB is the cascade chunk budget in KB.
	ChunkKB int `json:"chunk_kb"`
	// N is the synthetic-loop / kernel-gallery array length.
	N int `json:"n"`
}

// DefaultRunConfig returns the run configuration every experiment uses
// when the caller overrides nothing: paper-scale dataset, the paper's
// best chunk size, the synthetic loop's default length.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Scale:      1.0,
		ChunkBytes: cascade.DefaultChunkBytes,
		N:          synthetic.DefaultN,
	}
}

// Info returns the experiment's exported metadata.
func (e Experiment) Info() Info {
	rc := DefaultRunConfig()
	return Info{
		Name:        e.Name,
		Description: e.Description,
		Defaults: Defaults{
			Scale:   rc.Scale,
			ChunkKB: rc.ChunkBytes / 1024,
			N:       rc.N,
		},
	}
}

// Infos returns every registered experiment's metadata, sorted by name
// like Registry.
func Infos() []Info {
	reg := Registry()
	infos := make([]Info, len(reg))
	for i, e := range reg {
		infos[i] = e.Info()
	}
	return infos
}

// Registry returns every experiment sorted by name. Enumeration order is
// deterministic and shared by every consumer: the order "all" runs them,
// "-exp list" prints them, and the serving daemon's /v1/experiments
// returns them.
func Registry() []Experiment {
	reg := registry()
	sort.Slice(reg, func(i, j int) bool { return reg[i].Name < reg[j].Name })
	return reg
}

// registry lists the experiments in paper-presentation order; public
// enumeration sorts by name.
func registry() []Experiment {
	return []Experiment{
		Decomposed("quickstart", "scatter-add demo of cascaded execution and the metrics layer"),
		Decomposed("table1", "machine memory-system characteristics (Table 1)"),
		Decomposed("fig2", "overall PARMVR speedup vs processor count (Figure 2)"),
		Decomposed("fig3", "per-loop execution time by strategy (Figure 3)"),
		Decomposed("fig4", "per-loop L2 misses by strategy (Figure 4)"),
		Decomposed("fig5", "per-loop L1 misses by strategy (Figure 5)"),
		Decomposed("fig6", "effect of chunk size on PARMVR speedup (Figure 6)"),
		Decomposed("fig7", "synthetic-loop speedups on future machines (Figure 7)"),
		Decomposed("warmsweep", "warm-start sweep: every point forked from one shared warm prefix"),
		Decomposed("conflicts", "sequential miss classification per loop (§3.3's conflict claim)"),
		Decomposed("amdahl", "application-level speedup study (the paper's motivation)"),
		Decomposed("gallery", "kernel gallery: when does cascading pay?"),
		Decomposed("ablations", "design-choice ablations (jump-out, precompute, chunking, ...)"),
	}
}

// Names returns the registry's experiment names, sorted.
func Names() []string {
	reg := Registry()
	names := make([]string, len(reg))
	for i, e := range reg {
		names[i] = e.Name
	}
	return names
}

// Lookup finds a registered experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// runAs runs an experiment's decomposition and returns its result as T.
func runAs[T Renderable](ctx context.Context, name string, rc RunConfig) (T, error) {
	var zero T
	r, _, err := RunDecomposed(ctx, name, rc)
	if err != nil {
		return zero, err
	}
	return r.(T), nil
}

// runMembers runs an experiment whose result is a Group and returns its
// members as T.
func runMembers[T Renderable](ctx context.Context, name string, rc RunConfig) ([]T, error) {
	g, err := runAs[Group](ctx, name, rc)
	if err != nil {
		return nil, err
	}
	out := make([]T, len(g))
	for i, r := range g {
		out[i] = r.(T)
	}
	return out, nil
}

// Group renders several results in sequence — per-machine sweeps and the
// ablation series. It charts each member that can chart (falling back to
// its table) and marshals as a JSON array of the member results.
type Group []Renderable

// Render writes each member in order.
func (g Group) Render(w io.Writer) {
	for _, r := range g {
		r.Render(w)
	}
}

// RenderChart writes each member's chart, or its table when it has none.
func (g Group) RenderChart(w io.Writer) {
	for _, r := range g {
		if c, ok := r.(ChartRenderable); ok {
			c.RenderChart(w)
		} else {
			r.Render(w)
		}
	}
}

// MarshalJSON emits the member results as a JSON array.
func (g Group) MarshalJSON() ([]byte, error) {
	return json.Marshal([]Renderable(g))
}

// breakdownView is one figure's view of the shared loop breakdown:
// Figures 3, 4 and 5 plot execution time, L2 misses and L1 misses of the
// same measurement.
type breakdownView struct {
	*BreakdownResult
	fig int
}

func (v breakdownView) Render(w io.Writer) {
	switch v.fig {
	case 3:
		v.RenderFig3(w)
	case 4:
		v.RenderFig4(w)
	default:
		v.RenderFig5(w)
	}
}

func (v breakdownView) RenderChart(w io.Writer) {
	switch v.fig {
	case 3:
		v.RenderChartFig3(w)
	case 4:
		v.RenderChartFig4(w)
	default:
		v.RenderChartFig5(w)
	}
}
