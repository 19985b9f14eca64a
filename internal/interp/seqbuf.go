// Package interp executes loopir loops on a simulated processor. It is the
// bridge between the loop IR's value semantics and the machine's timing
// model: every array reference performs both a real load/store on the
// backing slice and a timed cache access, and per-iteration access
// latencies are combined with the machine's bounded-overlap model.
//
// Four execution modes cover everything the paper needs:
//
//   - ExecIters: ordinary execution from the operands' home locations
//     (sequential baseline and the execution phase of prefetch-mode
//     cascading).
//   - ShadowIters: the prefetch helper — a shadow version of the loop
//     body that loads every operand the next execution phase will touch,
//     against a cycle budget (the paper's jump-out-on-signal refinement).
//   - RestructureIters: the restructuring helper — streams read-only
//     operands (after optional read-only precomputation) into a
//     sequential buffer, and prefetches the non-restructurable operands.
//   - ExecFromBuffer: the execution phase over a (possibly partially
//     filled) sequential buffer.
package interp

import (
	"fmt"

	"repro/internal/memsim"
)

// seqBufElemSize is the element size of sequential buffers. Restructured
// operands are stored as full-width values.
const seqBufElemSize = 8

// SeqBuf is a sequential buffer: a per-processor staging area into which a
// restructuring helper packs read-only operand values in dynamic reference
// order, so the execution phase can consume them with a pure sequential
// walk (full line utilization, no conflict misses, no index arithmetic).
type SeqBuf struct {
	arr *memsim.Array
	n   int
}

// NewSeqBuf allocates a buffer of capElems value slots in the given
// address space. Buffers are aligned to 4KB pages to keep their placement
// stable with respect to cache sets.
func NewSeqBuf(s *memsim.Space, name string, capElems int) *SeqBuf {
	if capElems <= 0 {
		panic(fmt.Sprintf("interp: NewSeqBuf(%q) with capacity %d", name, capElems))
	}
	return &SeqBuf{arr: s.Alloc(name, capElems, seqBufElemSize, 4096)}
}

// Reset empties the buffer for reuse by the next chunk. The underlying
// storage (and therefore its cache residency) is retained, which is the
// point: a processor's buffer stays hot in its own cache across chunks.
func (b *SeqBuf) Reset() { b.n = 0 }

// Len returns the number of values currently stored.
func (b *SeqBuf) Len() int { return b.n }

// Cap returns the buffer's capacity in values.
func (b *SeqBuf) Cap() int { return b.arr.Len() }

// Array exposes the backing simulated array (for footprint accounting).
func (b *SeqBuf) Array() *memsim.Array { return b.arr }

// Push appends v and returns the element index written, so the caller can
// charge the store to the cache model. It panics when full; the cascade
// runner sizes buffers to the chunk.
func (b *SeqBuf) Push(v float64) int {
	if b.n >= b.arr.Len() {
		panic(fmt.Sprintf("interp: sequential buffer %s overflow (cap %d)", b.arr.Name(), b.arr.Len()))
	}
	b.arr.Store(b.n, v)
	b.n++
	return b.n - 1
}

// At returns the k-th stored value.
func (b *SeqBuf) At(k int) float64 {
	if k < 0 || k >= b.n {
		panic(fmt.Sprintf("interp: sequential buffer %s read %d outside [0,%d)", b.arr.Name(), k, b.n))
	}
	return b.arr.Load(k)
}
