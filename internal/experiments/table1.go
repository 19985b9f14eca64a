package experiments

import (
	"context"
	"fmt"

	"repro/internal/report"
)

// Table1 reproduces Table 1 of the paper: the memory-hierarchy parameters
// of the two machines, as configured in the simulator.
func Table1() *report.Table {
	t := report.NewTable(
		"Table 1. Pentium Pro and R10000 memory characteristics (simulated)",
		"Processor", "Memory Level", "Access Time (Cycles)", "Size", "Assoc", "Line Size")
	for _, cfg := range Machines() {
		t.Add(cfg.Name, "L1", fmt.Sprintf("%d", cfg.L1.HitLatency),
			sizeStr(cfg.L1.Size), fmt.Sprintf("%d", cfg.L1.Assoc),
			fmt.Sprintf("%d bytes", cfg.L1.LineSize))
		t.Add("", "L2", fmt.Sprintf("%d", cfg.L2.HitLatency),
			sizeStr(cfg.L2.Size), fmt.Sprintf("%d", cfg.L2.Assoc),
			fmt.Sprintf("%d bytes", cfg.L2.LineSize))
		t.Add("", "Memory", cfg.MemDesc, "-", "-", "-")
	}
	return t
}

// sizeStr renders a capacity the way Table 1 does (KB or MB/GB).
func sizeStr(bytes int) string {
	switch {
	case bytes >= 1<<30:
		return fmt.Sprintf("%gGB", float64(bytes)/(1<<30))
	case bytes >= 1<<20:
		return fmt.Sprintf("%gMB", float64(bytes)/(1<<20))
	default:
		return fmt.Sprintf("%dKB", bytes/1024)
	}
}

// table1Points has one point per machine, whose rows are its
// configuration. Like every point of a machine, each carries the
// machine's processor count and the job's scale, though the table
// depends on neither; runTable1Point refuses every other field.
func table1Points(rc RunConfig) []PointSpec {
	var specs []PointSpec
	for _, cfg := range Machines() {
		specs = append(specs, PointSpec{
			Experiment: "table1", Index: len(specs), Machine: cfg.Name, Procs: cfg.Procs, Scale: rc.Scale,
		})
	}
	return specs
}

// runTable1Point simulates nothing: the table is configuration. It
// refuses a spec naming any strategy, chunk budget, n, warmup or variant.
func runTable1Point(_ context.Context, _ *PrefixState, ps PointSpec) (PointResult, error) {
	if err := refuseUnread(ps, "the configuration table", "strategy", "chunk_kb", "chunk_bytes", "n", "warmup", "variant"); err != nil {
		return PointResult{}, err
	}
	return PointResult{Index: ps.Index}, nil
}

func init() {
	RegisterDecomposition("table1", Decomposition{
		Points: table1Points,
		Run:    runTable1Point,
		Merge:  func(RunConfig, []PointResult) (Renderable, error) { return Table1(), nil },
	})
}
