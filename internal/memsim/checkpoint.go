package memsim

import "fmt"

// Copy-on-write checkpointing for array values.
//
// A checkpoint seals every array: the SpaceState aliases each array's
// live backing slice and the array is marked copy-on-write, so the first
// subsequent mutation (Store, Fill, Restore, ...) copies the values into
// fresh private storage and leaves the sealed slice immutable. Taking a
// checkpoint is therefore O(arrays), not O(values), and a workload that
// writes only a few of its arrays between checkpoints pays the copy for
// only those arrays.
//
// LoadState aliases the sealed slices (again copy-on-write) into a
// different space of identical layout — another build of the same
// dataset — so one checkpoint can seed any number of private spaces,
// each on its own goroutine, without any of them writing through to the
// checkpoint or to each other.

// own gives the array private backing storage. Every mutating method
// calls it first, so sealed checkpoint values are never written through.
func (a *Array) own() {
	if !a.cow {
		return
	}
	fresh := make([]float64, len(a.data))
	copy(fresh, a.data)
	a.data = fresh
	a.cow = false
}

// Materialize forces the array to private backing storage now, as if it
// had been written. Callers that hand the array to concurrent writers
// (the cascade package's host-parallel engine) must materialize first:
// two goroutines racing to lazily copy-on-write the same sealed slice
// would each copy independently and one copy's writes would be lost.
func (a *Array) Materialize() { a.own() }

// Shared reports whether the array's backing storage is still sealed to
// a checkpoint (no write has occurred since the last Checkpoint or
// LoadState covering it).
func (a *Array) Shared() bool { return a.cow }

// seal marks the array copy-on-write and returns its current backing
// slice, which must never be written again.
func (a *Array) seal() []float64 {
	a.cow = true
	return a.data
}

// SpaceState is a checkpoint of a Space: the allocation cursor, the
// identity of the allocated arrays, and their sealed values. It is
// immutable once taken and may be loaded any number of times.
type SpaceState struct {
	next   Addr
	arrays []*Array
	sealed [][]float64
}

// Checkpoint seals the space's current values and allocation state.
func (s *Space) Checkpoint() *SpaceState {
	st := &SpaceState{
		next:   s.next,
		arrays: make([]*Array, len(s.arrays)),
		sealed: make([][]float64, len(s.arrays)),
	}
	copy(st.arrays, s.arrays)
	for i, a := range s.arrays {
		st.sealed[i] = a.seal()
	}
	return st
}

// LoadState makes s hold the values of a checkpoint taken on another
// space of identical layout: every array aliases the checkpoint's sealed
// values copy-on-write, and the allocation cursor moves to the
// checkpoint's. s must have exactly the checkpointed allocations' layout
// — the same array count, and per array the same name, base address,
// length and element size — or LoadState returns an error and leaves s
// unchanged. The checkpoint is only read, so distinct spaces may load
// one checkpoint concurrently.
func (s *Space) LoadState(st *SpaceState) error {
	if len(s.arrays) != len(st.arrays) {
		return fmt.Errorf("memsim: LoadState: space has %d arrays, checkpoint covers %d", len(s.arrays), len(st.arrays))
	}
	for i, a := range s.arrays {
		c := st.arrays[i]
		if a.name != c.name || a.base != c.base || a.elem != c.elem || len(a.data) != len(st.sealed[i]) {
			return fmt.Errorf("memsim: LoadState: array %d is %s, checkpoint holds %s[%d]x%dB@%s",
				i, a, c.name, len(st.sealed[i]), c.elem, c.base)
		}
	}
	s.next = st.next
	for i, a := range s.arrays {
		a.data = st.sealed[i]
		a.cow = true
	}
	return nil
}
