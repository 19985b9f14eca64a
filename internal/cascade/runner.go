package cascade

import (
	"fmt"

	"repro/internal/interp"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/metrics"
)

// phaseTimer returns m's cascade phase timer, creating and registering it
// on first use. All run drivers (cascaded, sequential, parallel) share this
// timer, so a machine's registry always reports simulated time under the
// same names.
func phaseTimer(m *machine.Machine) *metrics.PhaseTimer {
	t := m.Metrics().PhaseTimer(TimerName, PhaseHelper, PhaseExec, PhaseTransfer, PhaseWait)
	// Pre-size to the machine: the snapshot key shape must not depend on
	// which processors have been charged, or a machine's metrics would
	// differ in shape from run to run.
	t.Grow(m.Procs())
	return t
}

// chunkState is the mutable per-run state the cascade timeline is built
// from. The serial driver mutates it chunk by chunk; the parallel engine
// shares the exact same code for its inline (solo) chunks and replays its
// concurrently simulated chunks through the same accounting, which is how
// both drivers produce bit-identical Results.
type chunkState struct {
	m       *machine.Machine
	l       *loopir.Loop
	opts    Options
	timer   *metrics.PhaseTimer
	runners []*interp.Runner
	bufs    []*interp.SeqBuf

	transfer int64
	lastEnd  []int64 // end of each processor's previous execution phase
	t        int64   // cascade time: when control is handed off
	res      *Result
}

// runChunk simulates chunk k serially: transfer, helper phase bounded by
// the processor's idle window, then the execution phase, advancing the
// cascade timeline. This is the one and only serial per-chunk body.
func (s *chunkState) runChunk(k int, ch Chunk) {
	p := k % len(s.runners)
	start := s.t
	if k > 0 {
		start += s.transfer
		s.res.TransferCycles += s.transfer
		s.timer.Add(p, PhaseTransfer, s.transfer)
	}

	// Helper phase for this chunk, bounded by the processor's idle
	// window (signal arrives at t).
	budget := s.t - s.lastEnd[p]
	if budget < 0 {
		budget = 0
	}
	if !s.opts.JumpOut {
		budget = interp.Unlimited
	}
	var done int
	var helperCycles int64
	switch s.opts.Helper {
	case HelperPrefetch:
		done, helperCycles = s.runners[p].ShadowIters(s.l, ch.Lo, ch.Hi, budget)
	case HelperRestructure:
		s.bufs[p].Reset()
		done, helperCycles = s.runners[p].RestructureIters(s.l, ch.Lo, ch.Hi, s.bufs[p], budget, s.opts.Precompute)
	}
	s.res.HelperCycles += helperCycles
	s.res.HelperIters += done
	s.timer.Add(p, PhaseHelper, helperCycles)
	if !s.opts.JumpOut {
		// The execution phase waits for helper completion.
		if ready := s.lastEnd[p] + helperCycles; ready > start {
			s.timer.Add(p, PhaseWait, ready-start)
			start = ready
		}
	}

	// Execution phase, with stats bracketed so ExecL1/ExecL2 report
	// only what the running loop observes.
	l1Before, l2Before := s.m.L1Stats(), s.m.L2Stats()
	var execCycles int64
	switch s.opts.Helper {
	case HelperPrefetch:
		execCycles = s.runners[p].ExecIters(s.l, ch.Lo, ch.Hi)
	case HelperRestructure:
		execCycles = s.runners[p].ExecFromBuffer(s.l, ch.Lo, ch.Hi, done, s.bufs[p], s.opts.Precompute)
	}
	s.res.ExecL1.Add(s.m.L1Stats().Sub(l1Before))
	s.res.ExecL2.Add(s.m.L2Stats().Sub(l2Before))
	s.res.ExecCycles += execCycles
	s.timer.Add(p, PhaseExec, execCycles)
	end := start + execCycles
	s.lastEnd[p] = end
	s.t = end
}

// Run executes the loop under cascaded execution on m (Figure 1b).
//
// Chunks are assigned to processors round-robin. The timeline is modelled
// exactly as the implementation in the paper behaves:
//
//   - control becomes available at time t (the previous chunk's execution
//     end); passing it costs TransferCycles, so chunk k's execution phase
//     starts at t + TransferCycles;
//   - processor p = k mod P has been in its helper phase since its own
//     previous execution phase ended (lastEnd[p]); with JumpOut enabled
//     its helper cycle budget is therefore t - lastEnd[p], and whatever
//     part of the chunk the helper did not reach stays cold;
//   - with JumpOut disabled the helper always completes, and the
//     execution phase cannot begin before it does — the ablation the
//     paper argues against in §3.3.
//
// The helper for chunk k is simulated immediately before chunk k's
// execution phase rather than interleaved with chunks k-P+1..k-1; see
// DESIGN.md §4 for why this approximation is benign (chunks touch almost
// entirely disjoint data, and coherence invalidations still apply).
//
// When the machine's Parallel knob is on and the run qualifies (see
// newParEngine), the chunks are simulated concurrently on host goroutines
// by the parallel engine in internal/cascade/parengine.go; the Result is
// bit-identical either way, so the knob is purely a host-time optimization.
func Run(m *machine.Machine, l *loopir.Loop, opts Options) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	if err := l.Validate(); err != nil {
		return Result{}, err
	}

	timer := phaseTimer(m)
	if !opts.KeepState {
		ColdStart(m, l, opts.PriorParallel)
	}
	m.ResetStats()

	P := m.Procs()
	chunks := SplitFor(m.Config(), l, opts.ChunkBytes)
	runners := make([]*interp.Runner, P)
	for p := 0; p < P; p++ {
		runners[p] = interp.New(m.Proc(p))
	}

	var bufs []*interp.SeqBuf
	if opts.Helper == HelperRestructure {
		per := ItersPerChunk(l, opts.ChunkBytes)
		capElems := per * l.BufSlotsPerIter()
		if capElems < 1 {
			capElems = 1
		}
		bufs = make([]*interp.SeqBuf, P)
		for p := 0; p < P; p++ {
			bufs[p] = interp.NewSeqBuf(opts.Space, fmt.Sprintf("seqbuf%d", p), capElems)
		}
	}

	res := Result{
		Strategy:   opts.Helper.String(),
		Procs:      P,
		Chunks:     len(chunks),
		TotalIters: l.Iters,
	}
	st := &chunkState{
		m: m, l: l, opts: opts, timer: timer,
		runners: runners, bufs: bufs,
		transfer: m.Config().TransferCycles,
		lastEnd:  make([]int64, P),
		res:      &res,
	}

	if eng := newParEngine(st, chunks); eng != nil {
		// Concurrent workers write the loop's arrays (and buffers)
		// directly. Materialize any space-checkpoint-sealed storage up
		// front:
		// two goroutines racing the lazy copy-on-write would each copy
		// independently and one copy's writes would be lost.
		for _, a := range l.Arrays() {
			a.Materialize()
		}
		for _, b := range bufs {
			b.Array().Materialize()
		}
		eng.run()
	} else {
		for k, ch := range chunks {
			st.runChunk(k, ch)
		}
	}

	res.Cycles = st.t
	res.L1 = m.L1Stats()
	res.L2 = m.L2Stats()
	res.Bus = m.Bus().Stats()
	res.Metrics = m.Metrics().Snapshot()
	return res, nil
}

// MustRun is Run for options known to be valid; it panics on error.
func MustRun(m *machine.Machine, l *loopir.Loop, opts Options) Result {
	r, err := Run(m, l, opts)
	if err != nil {
		panic(err)
	}
	return r
}
