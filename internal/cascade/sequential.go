package cascade

import (
	"repro/internal/interp"
	"repro/internal/loopir"
	"repro/internal/machine"
)

// RunSequential executes the loop on processor 0 of m, the way a
// compiler-parallelized application runs its unparallelized loops
// (Figure 1a): the other processors idle. When priorParallel is true the
// loop's data is first distributed dirty across all processors' caches,
// modelling the preceding parallel section. Cache statistics in the
// result cover only the loop itself.
func RunSequential(m *machine.Machine, l *loopir.Loop, priorParallel bool) Result {
	ColdStart(m, l, priorParallel)
	return RunSequentialWarm(m, l)
}

// ColdStart puts m in the state every run of l that does not keep state
// begins from: empty caches and zeroed statistics, then, when
// priorParallel is set, l's data distributed dirty across the
// processors' caches by the preceding parallel section. RunSequential and
// Run (without KeepState) start this way; a driver that captures this
// state once and loads it per run (machine.Capture) runs with KeepState
// instead and gets the same result.
func ColdStart(m *machine.Machine, l *loopir.Loop, priorParallel bool) {
	m.ResetCaches()
	if priorParallel {
		distribute(m, l)
	}
}

// RunSequentialWarm executes the loop on processor 0 without touching the
// machine's cache state first: whatever the caches hold carries into the
// run. Statistics are reset so the result covers only this loop. Use it
// to measure steady-state calls of repeatedly-invoked code.
func RunSequentialWarm(m *machine.Machine, l *loopir.Loop) Result {
	timer := phaseTimer(m)
	m.ResetStats()
	r := interp.New(m.Proc(0))
	cycles := r.ExecIters(l, 0, l.Iters)
	timer.Add(0, PhaseExec, cycles)
	return Result{
		Strategy:   "sequential",
		Procs:      1,
		Cycles:     cycles,
		ExecCycles: cycles,
		Chunks:     1,
		TotalIters: l.Iters,
		L1:         m.L1Stats(),
		L2:         m.L2Stats(),
		Bus:        m.Bus().Stats(),
		ExecL1:     m.L1Stats(),
		ExecL2:     m.L2Stats(),
		Metrics:    m.Metrics().Snapshot(),
	}
}

// distribute spreads the loop's data across the machine's caches, dirty,
// line by line round-robin.
func distribute(m *machine.Machine, l *loopir.Loop) {
	ranges := l.AddrRanges()
	mr := make([]machine.AddrRange, len(ranges))
	for i, r := range ranges {
		mr[i] = machine.AddrRange{Base: r.Base, Bytes: r.Bytes}
	}
	m.DistributeLines(mr)
}
