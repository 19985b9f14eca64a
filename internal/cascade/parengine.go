package cascade

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/interp"
)

// The parallel engine simulates the cascade's chunks concurrently on host
// goroutines — one worker per simulated processor — while producing a
// Result bit-identical to the serial driver's. The differential tests in
// this package assert that identity; this comment records why it holds.
//
// Under cascaded execution chunk k runs on processor p = k mod P, and the
// serial driver simulates helper_k immediately before exec_k. The only
// couplings between chunk simulations are:
//
//  1. processor state: chunk k continues from chunk k-P's cache/TLB state
//     (enforced here by worker serialization: worker p runs p's chunks in
//     order);
//  2. the coherence bus: an access can probe, invalidate, or downgrade
//     lines in *another* processor's hierarchy, but only if that hierarchy
//     could hold the line (enforced by the footprint admission predicate
//     below: an admitted chunk's reads avoid every line a remote node
//     could hold Modified, and its writes avoid every line a remote node
//     could hold at all, so snooping would find nothing — the bus runs in
//     isolated operation and answers exactly as snooping would);
//  3. the timeline: chunk k's helper budget is t_{k-1} - lastEnd[p], a
//     value known only once every earlier chunk's execution time is known
//     (resolved by the budget-grant protocol below).
//
// Budget grants. A helper with JumpOut stops at the first iteration
// boundary where its cycles reach the budget, and budgets only ever
// compare against accumulated cycles — so running a helper with a lower
// bound of its true budget and resuming it when the bound improves is
// cycle-for-cycle identical to one run with the final budget. The
// coordinator therefore admits chunk k with the sound lower bound
//
//	t_c + (number of transfers in chunks c+1..k-1) x TransferCycles - lastEnd[p]
//
// where c is the replayed prefix, and raises it as the prefix advances;
// the grant with c = k-1 is the exact serial budget. A worker that
// exhausts a non-exact grant parks until the coordinator sends a larger
// one. Progress is guaranteed: the oldest in-flight chunk always has
// c = k-1, hence an exact grant.
//
// Replay. Workers return per-chunk cycle counts and per-processor cache
// stat deltas; the coordinator replays completions in chunk order through
// the same accounting as the serial driver (timeline, Result fields, phase
// timer). Per-processor exec deltas equal the serial driver's global
// bracketing because an admitted chunk, by the admission predicate,
// triggers no coherence action on any remote hierarchy — the only way a
// chunk's execution can move another processor's counters.
//
// Chunks that cannot be admitted (footprint conflict, unknown index shape
// handled earlier) run "solo": inline on the coordinator, with the bus
// snooping and the machine quiescent, through chunkState.runChunk — the
// serial code path itself, at a machine state identical to serial's by
// induction. Every simulated-state invariant is therefore preserved
// whether a run parallelizes fully, partially, or not at all.

// parEngaged, when non-nil, is invoked once per parallel run with the
// number of chunks simulated concurrently (admitted to workers) and the
// number that ran inline (solo). Tests use it to assert the engine
// actually engaged; it is deliberately not a metric, which would break
// result bit-identity with the serial engine.
var parEngaged func(admitted, solo int)

// parGrant is one budget grant: run until accumulated helper cycles reach
// limit; exact marks the final (serial-identical) budget.
type parGrant struct {
	limit int64
	exact bool
}

// parJob is one chunk handed to a worker, with its initial budget grant
// and the channel further grants arrive on.
type parJob struct {
	k     int
	ch    Chunk
	limit int64
	exact bool
	more  chan parGrant
}

// parDone reports one simulated chunk back to the coordinator.
type parDone struct {
	k, proc      int
	helperIters  int
	helperCycles int64
	execCycles   int64
	l1, l2       cache.Stats // processor-local exec-phase stat deltas
}

// parFlight is the coordinator's record of an in-flight chunk.
type parFlight struct {
	k, proc int
	fp      footprint
	job     *parJob
}

// spanHold tracks the lines a processor's hierarchy could hold: all lines
// its completed chunks touched, and the subset it could hold Modified.
// Both are supersets of the true holdings (evictions and invalidations
// only shrink a cache), which is the conservative direction.
type spanHold struct {
	all, mod []span
}

type parEngine struct {
	st     *chunkState
	chunks []Chunk
	shapes []refShape
	l2Line int
	P      int

	jobs   []chan *parJob
	doneCh chan parDone
	needCh chan int

	inflight  map[int]*parFlight
	pend      map[int]parDone // completed, awaiting in-order replay
	lastLimit map[int]int64
	parked    map[int]bool
	held      []spanHold
	prefix    int // all chunks <= prefix are replayed

	nAdmit, nSolo int
}

// newParEngine returns a parallel engine for the run, or nil when the run
// must stay on the serial driver: the knob is off, there is nothing to
// overlap, the initial cache state is not provably empty (KeepState, or
// PriorParallel's distributed dirty lines, which would put every chunk's
// footprint in every processor's holdings), an observer could see the
// schedule, the loop's value closures are not reentrant, or an index
// expression defeats the footprint analysis.
func newParEngine(st *chunkState, chunks []Chunk) *parEngine {
	cfg := st.m.Config()
	if !cfg.ParallelEnabled() {
		return nil
	}
	P := st.m.Procs()
	if P < 2 || len(chunks) < 2 {
		return nil
	}
	if st.opts.KeepState || st.opts.PriorParallel {
		return nil
	}
	for p := 0; p < P; p++ {
		if st.m.Proc(p).Observed() {
			return nil
		}
	}
	if !st.l.Reentrant() {
		return nil
	}
	shapes, ok := loopShapes(st.l)
	if !ok {
		return nil
	}
	return &parEngine{
		st: st, chunks: chunks, shapes: shapes,
		l2Line: cfg.L2.LineSize, P: P,
		jobs:      make([]chan *parJob, P),
		doneCh:    make(chan parDone, P),
		needCh:    make(chan int, P),
		inflight:  make(map[int]*parFlight),
		pend:      make(map[int]parDone),
		lastLimit: make(map[int]int64),
		parked:    make(map[int]bool),
		held:      make([]spanHold, P),
		prefix:    -1,
	}
}

// foot returns chunk k's footprint (restructure runs stream into the
// chunk's processor-private sequential buffer, which joins the write set).
func (e *parEngine) foot(k int) footprint {
	var buf *interp.SeqBuf
	if e.st.opts.Helper == HelperRestructure {
		buf = e.st.bufs[k%e.P]
	}
	return chunkFoot(e.shapes, e.chunks[k], e.l2Line, buf)
}

// admit decides whether chunk k may be simulated concurrently with the
// current in-flight set. Reads may share lines with other reads (serial
// snooping leaves Shared copies everywhere, at identical cost); all other
// sharing is a potential coherence interaction and blocks admission.
func (e *parEngine) admit(k int) (footprint, bool) {
	if e.prefix < k-e.P {
		// lastEnd[p] (and worker p's availability) requires chunk k-P
		// replayed.
		return footprint{}, false
	}
	fp := e.foot(k)
	for _, f := range e.inflight {
		if spansOverlap(fp.wr, f.fp.rd) || spansOverlap(fp.wr, f.fp.wr) || spansOverlap(fp.rd, f.fp.wr) {
			return footprint{}, false
		}
	}
	proc := k % e.P
	for q := 0; q < e.P; q++ {
		if q == proc {
			continue
		}
		if spansOverlap(fp.wr, e.held[q].all) || spansOverlap(fp.rd, e.held[q].mod) {
			return footprint{}, false
		}
	}
	return fp, true
}

// grant computes the current helper-budget bound for chunk k: the replayed
// timeline t plus one TransferCycles per unreplayed predecessor chunk
// (every chunk but chunk 0 pays a transfer; execution cycles only add to
// that), minus the processor's last execution end. exact when every
// predecessor is replayed, making the bound the serial budget itself.
func (e *parEngine) grant(k int) (int64, bool) {
	hops := int64(k - 1 - max(e.prefix, 0))
	limit := e.st.t + hops*e.st.transfer - e.st.lastEnd[k%e.P]
	if limit < 0 {
		limit = 0
	}
	return limit, e.prefix == k-1
}

// run drives the engine: admit chunks in order onto workers, fall back to
// inline serial simulation when a chunk cannot be admitted and nothing is
// in flight, and replay completions in chunk order.
func (e *parEngine) run() {
	for p := 0; p < e.P; p++ {
		e.jobs[p] = make(chan *parJob, 1)
		go e.worker(p, e.jobs[p])
	}
	n := 0
	for {
		for n < len(e.chunks) {
			fp, ok := e.admit(n)
			if !ok {
				break
			}
			e.dispatch(n, fp)
			n++
		}
		if len(e.inflight) == 0 {
			if n == len(e.chunks) {
				break
			}
			e.solo(n)
			n++
			continue
		}
		select {
		case d := <-e.doneCh:
			e.complete(d)
		case k := <-e.needCh:
			e.need(k)
		}
	}
	for p := 0; p < e.P; p++ {
		close(e.jobs[p])
	}
	if parEngaged != nil {
		parEngaged(e.nAdmit, e.nSolo)
	}
}

// dispatch hands chunk n to its worker. The bus enters isolated operation
// while any chunk is in flight; the channel send orders the toggle before
// the worker's first access.
func (e *parEngine) dispatch(n int, fp footprint) {
	if len(e.inflight) == 0 {
		e.st.m.Bus().SetIsolated(true)
	}
	limit, exact := e.grant(n)
	job := &parJob{k: n, ch: e.chunks[n], limit: limit, exact: exact, more: make(chan parGrant, 1)}
	e.lastLimit[n] = limit
	e.inflight[n] = &parFlight{k: n, proc: n % e.P, fp: fp, job: job}
	e.nAdmit++
	e.jobs[n%e.P] <- job
}

// solo simulates chunk n inline through the serial per-chunk body. Only
// reached with nothing in flight, so the machine state is exactly the
// serial state after chunk n-1 and the simulation is exactly serial.
func (e *parEngine) solo(n int) {
	fp := e.foot(n)
	e.st.runChunk(n, e.chunks[n])
	p := n % e.P
	e.held[p].all = mergeSpans(e.held[p].all, fp.rd, fp.wr)
	e.held[p].mod = mergeSpans(e.held[p].mod, fp.wr)
	e.prefix = n
	e.nSolo++
}

// complete retires a finished chunk: its footprint joins its processor's
// holdings, and every chunk completed in order is replayed into the
// timeline. Parked budget requests are re-answered when the prefix moved.
func (e *parEngine) complete(d parDone) {
	f := e.inflight[d.k]
	delete(e.inflight, d.k)
	e.held[f.proc].all = mergeSpans(e.held[f.proc].all, f.fp.rd, f.fp.wr)
	e.held[f.proc].mod = mergeSpans(e.held[f.proc].mod, f.fp.wr)
	e.pend[d.k] = d
	advanced := false
	for {
		d2, ok := e.pend[e.prefix+1]
		if !ok {
			break
		}
		delete(e.pend, e.prefix+1)
		e.replay(d2)
		e.prefix++
		advanced = true
	}
	if len(e.inflight) == 0 {
		e.st.m.Bus().SetIsolated(false)
	}
	if advanced {
		for k := range e.parked {
			limit, exact := e.grant(k)
			if limit > e.lastLimit[k] || exact {
				delete(e.parked, k)
				e.lastLimit[k] = limit
				e.inflight[k].job.more <- parGrant{limit: limit, exact: exact}
			}
		}
	}
}

// need answers a worker that exhausted its budget grant: immediately if
// the bound improved (or became exact) since, otherwise parked until the
// replayed prefix advances.
func (e *parEngine) need(k int) {
	limit, exact := e.grant(k)
	if limit > e.lastLimit[k] || exact {
		e.lastLimit[k] = limit
		e.inflight[k].job.more <- parGrant{limit: limit, exact: exact}
	} else {
		e.parked[k] = true
	}
}

// replay folds a concurrently simulated chunk into the timeline and
// Result, mirroring chunkState.runChunk's accounting exactly.
func (e *parEngine) replay(d parDone) {
	s := e.st
	k, p := d.k, d.proc
	if s.opts.JumpOut && d.helperIters < e.chunks[k].Iters() {
		// A jumped-out helper must have stopped on the exact serial
		// budget; anything else would mean the grant protocol handed out
		// an unsound bound.
		if want := s.t - s.lastEnd[p]; e.lastLimit[k] != want {
			panic(fmt.Sprintf("cascade: parallel engine: chunk %d jumped out on budget %d, serial budget is %d",
				k, e.lastLimit[k], want))
		}
	}
	start := s.t
	if k > 0 {
		start += s.transfer
		s.res.TransferCycles += s.transfer
		s.timer.Add(p, PhaseTransfer, s.transfer)
	}
	s.res.HelperCycles += d.helperCycles
	s.res.HelperIters += d.helperIters
	s.timer.Add(p, PhaseHelper, d.helperCycles)
	if !s.opts.JumpOut {
		if ready := s.lastEnd[p] + d.helperCycles; ready > start {
			s.timer.Add(p, PhaseWait, ready-start)
			start = ready
		}
	}
	s.res.ExecL1.Add(d.l1)
	s.res.ExecL2.Add(d.l2)
	s.res.ExecCycles += d.execCycles
	s.timer.Add(p, PhaseExec, d.execCycles)
	end := start + d.execCycles
	s.lastEnd[p] = end
	s.t = end
}

// worker simulates processor p's chunks, one at a time, in arrival order.
func (e *parEngine) worker(p int, jobs <-chan *parJob) {
	for job := range jobs {
		e.runJob(p, job)
	}
}

// helperCall runs one (possibly resumed) helper call from iteration lo.
func (e *parEngine) helperCall(r *interp.Runner, lo, hi int, budget int64, buf *interp.SeqBuf) (int, int64) {
	if e.st.opts.Helper == HelperPrefetch {
		return r.ShadowIters(e.st.l, lo, hi, budget)
	}
	return r.RestructureIters(e.st.l, lo, hi, buf, budget, e.st.opts.Precompute)
}

// runJob simulates one chunk on worker p: the helper phase under the
// budget-grant protocol, then the execution phase with processor-local
// stat bracketing.
func (e *parEngine) runJob(p int, job *parJob) {
	s := e.st
	r := s.runners[p]
	var buf *interp.SeqBuf
	if s.opts.Helper == HelperRestructure {
		buf = s.bufs[p]
		buf.Reset()
	}

	iters := job.ch.Iters()
	var helperCycles int64
	done := 0
	if !s.opts.JumpOut {
		done, helperCycles = e.helperCall(r, job.ch.Lo, job.ch.Hi, interp.Unlimited, buf)
	} else {
		limit, exact := job.limit, job.exact
		for {
			rem := limit - helperCycles
			if rem < 0 {
				rem = 0
			}
			d, cy := e.helperCall(r, job.ch.Lo+done, job.ch.Hi, rem, buf)
			done += d
			helperCycles += cy
			if done == iters || exact {
				break
			}
			e.needCh <- job.k
			g := <-job.more
			limit, exact = g.limit, g.exact
		}
	}

	h := s.m.Proc(p).Hierarchy()
	l1b, l2b := h.L1.Stats(), h.L2.Stats()
	var execCycles int64
	switch s.opts.Helper {
	case HelperPrefetch:
		execCycles = r.ExecIters(s.l, job.ch.Lo, job.ch.Hi)
	case HelperRestructure:
		execCycles = r.ExecFromBuffer(s.l, job.ch.Lo, job.ch.Hi, done, buf, s.opts.Precompute)
	}
	e.doneCh <- parDone{
		k: job.k, proc: p,
		helperIters: done, helperCycles: helperCycles,
		execCycles: execCycles,
		l1:         h.L1.Stats().Sub(l1b), l2: h.L2.Stats().Sub(l2b),
	}
}
