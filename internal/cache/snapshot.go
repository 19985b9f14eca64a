package cache

import (
	"fmt"
	"unsafe"

	"repro/internal/memsim"
)

// Copy-on-write snapshots of hierarchy state.
//
// Snapshot seals every component's backing array: the state struct
// aliases the live slice and the component is marked copy-on-write, so
// the next mutation — by the snapshotted hierarchy itself (which keeps
// running) or by a hierarchy the snapshot was restored into — copies the
// array into private storage first. Taking or restoring a snapshot is
// therefore O(components), not O(lines), and a fork whose tail never
// touches a component shares that component's storage for the whole run.
//
// The pointer-hint discipline is the load-bearing invariant here. The
// fast paths hold raw pointers into the backing arrays (Cache.last, the
// TLB hint table, the hierarchy's same-line memo) and mutate
// through them without a lookup. A pointer into a sealed array would
// write through the seal, corrupting every snapshot sharing it. Two
// rules prevent that:
//
//  1. every operation that mutates a backing array or yields a pointer
//     into one calls own() first (lookup, Fill, Access, entryPtr, the
//     victim buffer's mutators, Reset), so escaped pointers always point
//     into private storage;
//  2. sealing clears the component's pointer hints (last, hints, memo),
//     so pointers predating the seal cannot be used after it.
//
// touchFast asserts the invariant: it is only reachable via pointers
// from rule 1, so observing cow there is a bug.
//
// Snapshots must be taken with no classification shadow attached (the
// shadow holds per-access history that sealing cannot capture cheaply).

// own gives the cache private backing storage and drops pointer hints.
func (c *Cache) own() {
	if !c.cow {
		return
	}
	fresh := make([]line, len(c.sets))
	copy(fresh, c.sets)
	c.sets = fresh
	c.cow = false
	c.last = nil
}

// Shared reports whether the cache still shares sealed snapshot storage.
func (c *Cache) Shared() bool { return c.cow }

// CacheState is a sealed snapshot of one cache level.
type CacheState struct {
	sets  []line // sealed; never written after the seal
	tick  uint64
	stats Stats
}

// snapshotState seals the cache and returns its state.
func (c *Cache) snapshotState() CacheState {
	c.cow = true
	c.last = nil
	return CacheState{sets: c.sets, tick: c.tick, stats: c.stats}
}

// restoreState points the cache at a sealed snapshot (copy-on-write).
func (c *Cache) restoreState(st CacheState) {
	if len(st.sets) != len(c.sets) {
		panic(fmt.Sprintf("cache %s: restore of %d-line snapshot into %d-line cache", c.cfg.Name, len(st.sets), len(c.sets)))
	}
	c.sets = st.sets
	c.cow = true
	c.tick = st.tick
	c.stats = st.stats
	c.last = nil
}

// own gives the TLB private backing storage and drops pointer hints.
func (t *TLB) own() {
	if !t.cow {
		return
	}
	fresh := make([]tlbEntry, len(t.sets))
	copy(fresh, t.sets)
	t.sets = fresh
	t.cow = false
	t.last = nil
	t.hints = [tlbHintSlots]*tlbEntry{}
}

// Shared reports whether the TLB still shares sealed snapshot storage.
func (t *TLB) Shared() bool { return t.cow }

// TLBState is a sealed snapshot of a TLB.
type TLBState struct {
	sets  []tlbEntry // sealed
	tick  uint64
	stats TLBStats
}

func (t *TLB) snapshotState() TLBState {
	t.cow = true
	t.last = nil
	t.hints = [tlbHintSlots]*tlbEntry{}
	return TLBState{sets: t.sets, tick: t.tick, stats: t.stats}
}

func (t *TLB) restoreState(st TLBState) {
	if len(st.sets) != len(t.sets) {
		panic(fmt.Sprintf("cache: restore of %d-entry TLB snapshot into %d-entry TLB", len(st.sets), len(t.sets)))
	}
	t.sets = st.sets
	t.cow = true
	t.tick = st.tick
	t.stats = st.stats
	t.last = nil
	t.hints = [tlbHintSlots]*tlbEntry{}
}

// own gives the victim buffer private backing storage.
func (v *victimBuffer) own() {
	if !v.cow {
		return
	}
	fresh := make([]victimEntry, len(v.entries))
	copy(fresh, v.entries)
	v.entries = fresh
	v.cow = false
}

// VictimState is a sealed snapshot of a victim buffer.
type VictimState struct {
	entries []victimEntry // sealed
	tick    uint64
	stats   VictimStats
}

func (v *victimBuffer) snapshotState() VictimState {
	v.cow = true
	return VictimState{entries: v.entries, tick: v.tick, stats: v.stats}
}

func (v *victimBuffer) restoreState(st VictimState) {
	if len(st.entries) != len(v.entries) {
		panic(fmt.Sprintf("cache: restore of %d-entry victim snapshot into %d-entry buffer", len(st.entries), len(v.entries)))
	}
	v.entries = st.entries
	v.cow = true
	v.tick = st.tick
	v.stats = st.stats
}

// HierarchyState is a sealed copy-on-write snapshot of one processor's
// private hierarchy: L1, L2, TLB, victim buffer, and (uniprocessor
// hierarchies only) the memory source's fetch counter. It is immutable
// once taken and may be restored into any number of shape-compatible
// hierarchies.
type HierarchyState struct {
	l1, l2     CacheState
	tlb        *TLBState
	victims    *VictimState
	memFetches int64
	hasMem     bool
}

// Snapshot seals the hierarchy's components and returns their state. It
// refuses while a miss-classification shadow is attached: the shadow
// holds unbounded per-access history that cheap sealing cannot capture.
// The hierarchy keeps running afterwards; its next mutation of a
// component copies that component's storage.
func (h *Hierarchy) Snapshot() (*HierarchyState, error) {
	if h.L1.classify != nil || h.L2.classify != nil {
		return nil, fmt.Errorf("cache: cannot snapshot with miss classification enabled")
	}
	h.memo = [fastSlots]fastMemo{}
	st := &HierarchyState{l1: h.L1.snapshotState(), l2: h.L2.snapshotState()}
	if h.TLB != nil {
		t := h.TLB.snapshotState()
		st.tlb = &t
	}
	if h.victims != nil {
		v := h.victims.snapshotState()
		st.victims = &v
	}
	if m, ok := h.Source.(*MemorySource); ok {
		st.hasMem = true
		st.memFetches = m.Fetches
	}
	return st, nil
}

// Restore points the hierarchy's components at a sealed snapshot
// (copy-on-write) and clears every pointer hint. The hierarchy must be
// shape-compatible with the snapshotted one: same cache geometries, same
// TLB and victim-buffer presence.
func (h *Hierarchy) Restore(st *HierarchyState) error {
	if h.L1.classify != nil || h.L2.classify != nil {
		return fmt.Errorf("cache: cannot restore with miss classification enabled")
	}
	if (h.TLB != nil) != (st.tlb != nil) {
		return fmt.Errorf("cache: snapshot TLB presence mismatch")
	}
	if (h.victims != nil) != (st.victims != nil) {
		return fmt.Errorf("cache: snapshot victim-buffer presence mismatch")
	}
	_, hasMem := h.Source.(*MemorySource)
	if hasMem != st.hasMem {
		return fmt.Errorf("cache: snapshot memory-source presence mismatch")
	}
	h.memo = [fastSlots]fastMemo{}
	h.L1.restoreState(st.l1)
	h.L2.restoreState(st.l2)
	if h.TLB != nil {
		h.TLB.restoreState(*st.tlb)
	}
	if h.victims != nil {
		h.victims.restoreState(*st.victims)
	}
	if st.hasMem {
		h.Source.(*MemorySource).Fetches = st.memFetches
	}
	return nil
}

// SharedComponents reports which of the hierarchy's components still
// share sealed snapshot storage (no write since the last snapshot or
// restore), as a subset of {"l1", "l2", "tlb", "victim"}. A sequential
// tail that never ran on this processor leaves every component shared —
// the per-fork dirty map the warm-start benchmarks report.
func (h *Hierarchy) SharedComponents() []string {
	var out []string
	if h.L1.cow {
		out = append(out, "l1")
	}
	if h.L2.cow {
		out = append(out, "l2")
	}
	if h.TLB != nil && h.TLB.cow {
		out = append(out, "tlb")
	}
	if h.victims != nil && h.victims.cow {
		out = append(out, "victim")
	}
	return out
}

// Occupancy summarizes a snapshot's resident state, read directly from
// the sealed arrays — inspection never copies or disturbs sharing.
type Occupancy struct {
	L1Valid    int `json:"l1_valid"`
	L1Modified int `json:"l1_modified"`
	L2Valid    int `json:"l2_valid"`
	L2Modified int `json:"l2_modified"`
	TLBValid   int `json:"tlb_valid"`
	Victim     int `json:"victim_valid"`
}

// Occupancy counts the snapshot's valid and Modified lines per level.
func (st *HierarchyState) Occupancy() Occupancy {
	var o Occupancy
	for i := range st.l1.sets {
		if s := st.l1.sets[i].state; s != Invalid {
			o.L1Valid++
			if s == Modified {
				o.L1Modified++
			}
		}
	}
	for i := range st.l2.sets {
		if s := st.l2.sets[i].state; s != Invalid {
			o.L2Valid++
			if s == Modified {
				o.L2Modified++
			}
		}
	}
	if st.tlb != nil {
		for i := range st.tlb.sets {
			if st.tlb.sets[i].valid {
				o.TLBValid++
			}
		}
	}
	if st.victims != nil {
		for i := range st.victims.entries {
			if st.victims.entries[i].state != Invalid {
				o.Victim++
			}
		}
	}
	return o
}

// MemBytes is the host memory the snapshot's sealed arrays occupy: one
// record per cache line slot of each level, per TLB entry, and per
// victim-buffer entry. Caches model presence and state only, so a slot
// is a tag, a state, and an LRU stamp, never the line's data.
func (st *HierarchyState) MemBytes() int64 {
	n := int64(len(st.l1.sets)+len(st.l2.sets)) * int64(unsafe.Sizeof(line{}))
	if st.tlb != nil {
		n += int64(len(st.tlb.sets)) * int64(unsafe.Sizeof(tlbEntry{}))
	}
	if st.victims != nil {
		n += int64(len(st.victims.entries)) * int64(unsafe.Sizeof(victimEntry{}))
	}
	return n
}

// ForEachL1Line calls f for every valid L1 line in the snapshot, in
// set-major order, without disturbing the seal.
func (st *HierarchyState) ForEachL1Line(f func(addr memsim.Addr, s State)) {
	for i := range st.l1.sets {
		if st.l1.sets[i].state != Invalid {
			f(st.l1.sets[i].tag, st.l1.sets[i].state)
		}
	}
}

// L1Stats returns the snapshot's L1 counters.
func (st *HierarchyState) L1Stats() Stats { return st.l1.stats }

// L2Stats returns the snapshot's L2 counters.
func (st *HierarchyState) L2Stats() Stats { return st.l2.stats }
