package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/cascade"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/report"
)

// AblationRow is one configuration of an ablation study.
type AblationRow struct {
	Config  string
	Machine string
	Cycles  int64
	Speedup float64 // vs that machine's sequential baseline
}

// AblationResult is a generic ablation outcome.
type AblationResult struct {
	Name string
	Rows []AblationRow
}

// Render writes the ablation as a table.
func (a *AblationResult) Render(w io.Writer) {
	t := report.NewTable("Ablation: "+a.Name, "Machine", "Configuration", "Cycles", "Speedup")
	for _, r := range a.Rows {
		t.Add(r.Machine, r.Config, report.Int(r.Cycles), report.Float(r.Speedup))
	}
	t.Render(w)
	io.WriteString(w, "\n")
}

// Find returns the row with the given machine and config label.
func (a *AblationResult) Find(machineName, config string) (AblationRow, bool) {
	for _, r := range a.Rows {
		if r.Machine == machineName && r.Config == config {
			return r, true
		}
	}
	return AblationRow{}, false
}

// Ablations decomposes into one point per row, each one PARMVR call at
// the paper's 64KB chunk budget on a machine at its full processor
// count, after one sequential baseline point per distinct baseline the
// rows' speedups divide by. A row's configuration token (PointSpec.Variant)
// says how its call differs from the plain one. Rows whose machine is a
// preset and whose loops start from the prior parallel section run off
// that machine's cold-call prefix (parmvrPrefix), so a row equal to a
// fig2 call, or to another row, is a call-memo hit; the R10000's
// restructured 64KB call is one simulation for the jump-out, precompute,
// chunking and victim-cache studies.

// Ablation row configurations: how a row's PARMVR call differs from the
// plain call on its preset machine.
const (
	ablWait       = "wait"                 // helper waits for completion instead of jumping out (§3.3)
	ablPrecompute = "precompute"           // helper precomputes read-only work (§2.1)
	ablBlock      = "block"                // one chunk per processor instead of the byte budget (§2.2)
	ablNoPrefetch = "no-compiler-prefetch" // compiler prefetching disabled
	ablNoTLB      = "no-tlb"               // TLB not modelled
	ablVictim     = "victim"               // 16-entry victim buffer beside each L1
	ablCold       = "cold-caches"          // loops start from cold caches, no prior parallel section
)

// ablationRow is one row of an ablation study on each of its machines.
type ablationRow struct {
	label   string
	strat   Strategy
	variant string // the call's configuration; "" is the plain call
	base    string // configuration of the sequential call Speedup divides by
	unit    bool   // Speedup is 1: the study compares sequential baselines
}

// ablationStudy is one ablation: its rows, on every machine in order, or
// only on the named one.
type ablationStudy struct {
	name    string
	machine string
	rows    []ablationRow
}

// ablationStudies lists the studies in presentation order.
var ablationStudies = []ablationStudy{
	// §3.3's refinement: jumping out of the helper phase on signal
	// versus waiting for helper completion.
	{name: "jump-out-of-helper on signal (restructured, 64KB chunks)", rows: []ablationRow{
		{label: "jump out on signal", strat: Restructured},
		{label: "wait for helper completion", strat: Restructured, variant: ablWait},
	}},
	// §2.1's optional read-only precomputation during the restructuring
	// helper phase.
	{name: "read-only precomputation in helper (restructured, 64KB chunks)", rows: []ablationRow{
		{label: "store raw operands", strat: Restructured},
		{label: "precompute in helper", strat: Restructured, variant: ablPrecompute},
	}},
	// The paper's byte-budget chunk sizing (§2.2) against naive block
	// partitioning (one chunk per processor, the obvious alternative a
	// scheduler might pick).
	{name: "chunk sizing: 64KB byte budget vs one block per processor (restructured)", rows: []ablationRow{
		{label: "64KB byte budget", strat: Restructured},
		{label: "one block per processor", strat: Restructured, variant: ablBlock},
	}},
	// The paper's hypothesis that MIPSpro's inserted prefetches are why
	// helper prefetching gains nothing on the R10000 (§3.3).
	{name: "R10000 compiler prefetching vs cascaded prefetch helper (64KB chunks)", machine: "R10000", rows: []ablationRow{
		{label: "MIPSpro prefetch on (prefetched helper)", strat: Prefetched},
		{label: "MIPSpro prefetch off (prefetched helper)", strat: Prefetched, variant: ablNoPrefetch, base: ablNoPrefetch},
	}},
	// How much of the sequential baseline's cost is address translation
	// (the model's answer: little for these loops — their page-level
	// locality is good even when their line-level locality is terrible).
	{name: "data-TLB modelling (sequential baseline)", rows: []ablationRow{
		{label: "TLB modelled", strat: Sequential, unit: true},
		{label: "TLB disabled", strat: Sequential, variant: ablNoTLB, unit: true},
	}},
	// The paper's premise that an unparallelized loop starts with its
	// data "distributed among the other processors during a previous
	// parallel section", and what that start state costs the sequential
	// baseline.
	{name: "prior-parallel-section start state (sequential baseline)", rows: []ablationRow{
		{label: "data distributed by parallel section", strat: Sequential, unit: true},
		{label: "cold caches", strat: Sequential, variant: ablCold, unit: true},
	}},
	// Whether a small hardware victim cache (an extension; neither 1997
	// machine had one) could substitute for restructuring. The buffer
	// absorbs L1 conflict thrashing but cannot touch L2 conflicts,
	// capacity misses, or gather locality — restructuring still wins.
	{name: "16-entry L1 victim cache vs restructuring", rows: []ablationRow{
		{label: "sequential, no victim buffer", strat: Sequential, unit: true},
		{label: "sequential + victim buffer", strat: Sequential, variant: ablVictim},
		{label: "restructured cascade", strat: Restructured},
	}},
}

// machines returns the configurations the study runs on.
func (s ablationStudy) machines() []machine.Config {
	var out []machine.Config
	for _, cfg := range Machines() {
		if s.machine == "" || s.machine == cfg.Name {
			out = append(out, cfg)
		}
	}
	return out
}

// ablationPoints lists the baselines, in order of first use, then every
// row on every machine of its study.
func ablationPoints(rc RunConfig) []PointSpec {
	var specs []PointSpec
	add := func(cfg machine.Config, strat Strategy, variant string) {
		specs = append(specs, PointSpec{
			Experiment: "ablations", Index: len(specs), Machine: cfg.Name, Procs: cfg.Procs,
			Strategy: strat.Token(), ChunkKB: cascade.DefaultChunkBytes / 1024, Scale: rc.Scale,
			Variant: variant,
		})
	}
	seen := map[[2]string]bool{}
	for _, s := range ablationStudies {
		for _, cfg := range s.machines() {
			for _, r := range s.rows {
				if k := [2]string{cfg.Name, r.base}; !r.unit && !seen[k] {
					seen[k] = true
					add(cfg, Sequential, r.base)
				}
			}
		}
	}
	for _, s := range ablationStudies {
		for _, cfg := range s.machines() {
			for _, r := range s.rows {
				add(cfg, r.strat, r.variant)
			}
		}
	}
	return specs
}

// ablationMerge rebuilds every study with the drivers' arithmetic: a
// row's Speedup is its baseline's cycles over its own, or 1.
func ablationMerge(rc RunConfig, results []PointResult) (Renderable, error) {
	specs := ablationPoints(rc)
	if len(results) != len(specs) {
		return nil, fmt.Errorf("ablations merge: %d results, want %d", len(results), len(specs))
	}
	type call struct{ machine, strategy, variant string }
	cycles := make(map[call]int64, len(specs))
	for i, ps := range specs {
		cycles[call{ps.Machine, ps.Strategy, ps.Variant}] = results[i].Cycles
	}
	var g Group
	for _, s := range ablationStudies {
		a := &AblationResult{Name: s.name}
		for _, cfg := range s.machines() {
			for _, r := range s.rows {
				c := cycles[call{cfg.Name, r.strat.Token(), r.variant}]
				row := AblationRow{Config: r.label, Machine: cfg.Name, Cycles: c, Speedup: 1}
				if !r.unit {
					row.Speedup = float64(cycles[call{cfg.Name, Sequential.Token(), r.base}]) / float64(c)
				}
				a.Rows = append(a.Rows, row)
			}
		}
		g = append(g, a)
	}
	return g, nil
}

// ablationPrefix is a row's cold-call prefix: its preset machine's, when
// the row changes only the cascade options.
func ablationPrefix(ps PointSpec) (PrefixSpec, bool) {
	switch ps.Variant {
	case "", ablWait, ablPrecompute, ablBlock:
		return parmvrPrefix(ps)
	}
	return PrefixSpec{}, false
}

// ablationOptions returns the per-loop cascade options of an ablation
// configuration on a machine with procs processors: nil for the plain
// call. A configuration that changes the machine or the start state
// instead is refused: only runAblationPoint's own path runs it.
func ablationOptions(variant string, procs int) (func(l *loopir.Loop) []cascade.Option, error) {
	switch variant {
	case "":
		return nil, nil
	case ablWait:
		return func(*loopir.Loop) []cascade.Option { return []cascade.Option{cascade.WithJumpOut(false)} }, nil
	case ablPrecompute:
		return func(*loopir.Loop) []cascade.Option { return []cascade.Option{cascade.WithPrecompute(true)} }, nil
	case ablBlock:
		// Block partitioning: each loop split into exactly procs chunks.
		return func(l *loopir.Loop) []cascade.Option {
			return []cascade.Option{cascade.WithChunkBytes((l.Iters*l.BytesPerIter() + procs - 1) / procs)}
		}, nil
	case ablNoPrefetch, ablNoTLB, ablVictim, ablCold:
		return nil, fmt.Errorf("ablation configuration %q changes the machine or start state, which only an ablations point runs", variant)
	}
	return nil, fmt.Errorf("unknown ablation configuration %q", variant)
}

// runAblationPoint runs a row's call: off its prefix state when the row
// has one (ablationPrefix), else on its configured machine from its
// start state.
func runAblationPoint(ctx context.Context, st *PrefixState, ps PointSpec) (PointResult, error) {
	if st != nil {
		return runPARMVRPoint(ctx, st, ps)
	}
	if err := unreadByCall(ps); err != nil {
		return PointResult{}, err
	}
	cfg, err := machineByName(ps.Machine)
	if err != nil {
		return PointResult{}, err
	}
	cfg = cfg.WithProcs(ps.Procs)
	prior := true
	switch ps.Variant {
	case ablNoPrefetch:
		cfg.CompilerPrefetch.Enabled = false
	case ablNoTLB:
		cfg.TLB = cache.TLBConfig{}
	case ablVictim:
		cfg = cfg.WithVictim(16, 2)
	case ablCold:
		prior = false
	default:
		return PointResult{}, fmt.Errorf("unknown ablation configuration %q", ps.Variant)
	}
	strat, err := ParseStrategy(ps.Strategy)
	if err != nil {
		return PointResult{}, err
	}
	p := RunConfig{Scale: ps.Scale}.Params()
	rr, err := runPARMVR(cfg, p, strat, ps.ChunkKB*1024, coldStart(prior), nil)
	if err != nil {
		return PointResult{}, err
	}
	return PointResult{Index: ps.Index, Cycles: TotalCycles(rr)}, nil
}

func init() {
	RegisterDecomposition("ablations", Decomposition{
		Points: ablationPoints,
		Prefix: ablationPrefix,
		Run:    runAblationPoint,
		Merge:  ablationMerge,
	})
}

// Ablations runs every ablation study through its decomposition, in
// presentation order.
func Ablations(ctx context.Context, rc RunConfig) ([]*AblationResult, error) {
	return runMembers[*AblationResult](ctx, "ablations", rc)
}
