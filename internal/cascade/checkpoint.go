package cascade

import (
	"fmt"

	"repro/internal/interp"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/metrics"
)

// Checkpoint captures a cascaded run at a chunk boundary: the machine's
// state (copy-on-write), the address space's values and allocation
// cursor (also copy-on-write), and the run driver's own progress — the
// cascade timeline, the partial Result, and which chunk runs next.
// Chunk boundaries are the run's quiescent points: the bus is snooping,
// so the machine snapshot's preconditions hold by construction.
//
// A checkpoint is immutable and supports two consumers:
//
//   - time-travel inspection: Snap.Inspect() renders the cache,
//     coherence, and metrics state at iteration Iter without building a
//     machine (the server's GET .../checkpoints/{k});
//   - deterministic resume: Resume continues the run from NextChunk and
//     produces a Result bit-identical to the uninterrupted run's, which
//     the differential tests in this package assert.
type Checkpoint struct {
	// Iter is the number of loop iterations completed at capture.
	Iter int
	// NextChunk indexes the first chunk the resumed run executes.
	NextChunk int
	// Time is the cascade timeline (when control was last handed off).
	Time int64
	// LastEnd is each processor's previous execution-phase end time.
	LastEnd []int64
	// Partial is the Result accumulated so far (finalized fields —
	// Cycles, stats aggregates, Metrics — are still zero).
	Partial Result
	// Snap is the machine state at capture.
	Snap *machine.Snapshot
	// Space is the address-space state (array values, allocation cursor)
	// at capture.
	Space *memsim.SpaceState
}

// capture checkpoints the run after chunk k (covering iterations
// [0, ch.Hi)) completed.
func (st *chunkState) capture(k int, ch Chunk) (*Checkpoint, error) {
	snap, err := st.m.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("cascade: checkpoint after chunk %d: %w", k, err)
	}
	return &Checkpoint{
		Iter:      ch.Hi,
		NextChunk: k + 1,
		Time:      st.t,
		LastEnd:   append([]int64(nil), st.lastEnd...),
		Partial:   *st.res,
		Snap:      snap,
		Space:     st.opts.Space.Checkpoint(),
	}, nil
}

// runSerial executes chunks[from:] through the serial per-chunk body,
// delivering checkpoints to the options' sink at the machine's
// CheckpointEvery iteration cadence (every completed chunk when the
// cadence is zero). Capture happens after the chunk whose end crosses
// the next cadence mark, so checkpoint iteration numbers are exact chunk
// boundaries.
func (st *chunkState) runSerial(chunks []Chunk, from int) error {
	sink := st.opts.CheckpointSink
	every := st.m.Config().CheckpointEvery
	nextMark := 0
	if every > 0 && from < len(chunks) {
		start := chunks[from].Lo
		nextMark = ((start / every) + 1) * every
	}
	for k := from; k < len(chunks); k++ {
		ch := chunks[k]
		st.runChunk(k, ch)
		if sink == nil {
			continue
		}
		if every > 0 {
			if ch.Hi < nextMark {
				continue
			}
			for nextMark <= ch.Hi {
				nextMark += every
			}
		}
		ck, err := st.capture(k, ch)
		if err != nil {
			return err
		}
		sink(ck)
	}
	return nil
}

// Resume continues a cascaded run from a checkpoint and returns the
// completed run's Result — bit-identical to the Result the uninterrupted
// run produced or would have produced, including every metric.
//
// The machine is forked fresh from the checkpoint (the original machine
// is not touched), but the address space the checkpoint was taken on is
// rewound in place: its arrays are shared objects referenced by the loop
// IR, so resuming restores their values and releases post-checkpoint
// allocations. opts must describe the same run the checkpoint came from
// (same helper, chunk size, and space); Resume rebuilds everything else.
func Resume(l *loopir.Loop, opts Options, ck *Checkpoint) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	if err := l.Validate(); err != nil {
		return Result{}, err
	}
	if opts.Space == nil {
		return Result{}, fmt.Errorf("cascade: Resume requires Options.Space (the checkpointed space)")
	}

	m, err := ck.Snap.Fork()
	if err != nil {
		return Result{}, err
	}
	opts.Space.RestoreState(ck.Space)

	// Seed the fork's phase timer with the prefix's accumulated cycles so
	// the final metrics snapshot equals the uninterrupted run's. The
	// fork's registry is otherwise fully restored by Fork (component
	// stats, bus shards); the timer is the one run-driver source the
	// uninterrupted run would have had.
	timer := phaseTimer(m)
	pre := ck.Snap.Metrics()
	for p := 0; p < m.Procs(); p++ {
		for _, phase := range []string{PhaseHelper, PhaseExec, PhaseTransfer, PhaseWait} {
			timer.Set(p, phase, pre.Get(fmt.Sprintf("%s.p%d.%s", TimerName, p, phase)))
		}
	}

	P := m.Procs()
	chunks := SplitFor(m.Config(), l, opts.ChunkBytes)
	if ck.NextChunk > len(chunks) {
		return Result{}, fmt.Errorf("cascade: checkpoint's next chunk %d beyond %d chunks (wrong loop or chunk size?)", ck.NextChunk, len(chunks))
	}
	if len(ck.LastEnd) != P {
		return Result{}, fmt.Errorf("cascade: checkpoint covers %d processors, machine has %d", len(ck.LastEnd), P)
	}
	runners := make([]*interp.Runner, P)
	for p := 0; p < P; p++ {
		runners[p] = interp.New(m.Proc(p))
	}

	// The run's sequential buffers were allocated before its first chunk,
	// so the checkpointed space already holds them: re-adopt rather than
	// re-allocate, keeping every address identical to the original run.
	var bufs []*interp.SeqBuf
	if opts.Helper == HelperRestructure {
		per := ItersPerChunk(l, opts.ChunkBytes)
		capElems := per * l.BufSlotsPerIter()
		if capElems < 1 {
			capElems = 1
		}
		bufs = make([]*interp.SeqBuf, P)
		for p := 0; p < P; p++ {
			bufs[p] = interp.AttachSeqBuf(opts.Space, fmt.Sprintf("seqbuf%d", p), capElems)
			if bufs[p] == nil {
				return Result{}, fmt.Errorf("cascade: checkpointed space has no seqbuf%d of capacity %d", p, capElems)
			}
		}
	}

	res := ck.Partial
	st := &chunkState{
		m: m, l: l, opts: opts, timer: timer,
		runners: runners, bufs: bufs,
		transfer: m.Config().TransferCycles,
		lastEnd:  append([]int64(nil), ck.LastEnd...),
		t:        ck.Time,
		res:      &res,
	}
	if err := st.runSerial(chunks, ck.NextChunk); err != nil {
		return Result{}, err
	}

	res.Cycles = st.t
	res.L1 = m.L1Stats()
	res.L2 = m.L2Stats()
	res.Bus = m.Bus().Stats()
	res.Metrics = m.Metrics().Snapshot()
	return res, nil
}

// PrefixMetrics is a convenience for conservation checks: the metric
// state captured inside the checkpoint's machine snapshot.
func (ck *Checkpoint) PrefixMetrics() metrics.Snapshot { return ck.Snap.Metrics() }
