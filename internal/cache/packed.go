package cache

import (
	"fmt"
	"unsafe"
)

// Packed captures of hierarchy contents.
//
// A PackedState is the machine state many runs start from but none
// continues: only the valid L1 and L2 lines are kept, each with its slot
// index, beside the levels' LRU ticks and the (small) TLB and
// victim-buffer arrays. Loading one clears the target hierarchy's own
// arrays and scatters the lines back, so it shares no storage with the
// capture, costs a pass over the target's slots, and keeps nothing alive
// but the packed lines.
//
// A capture holds contents, not statistics: a loaded hierarchy starts
// with zeroed counters, exactly as after a measured-region boundary.
//
// Loading marks every component untouched; the component's first
// lookup, fill, translation or reset clears the mark. UntouchedComponents
// reads the marks, so a warm point can report which components its
// measured run never reached.

// packedCache is the valid-line content of one cache level.
type packedCache struct {
	slots int     // len(sets) of the captured level, for shape checks
	idx   []int32 // slot index of lines[k]
	lines []line
	tick  uint64
}

// pack captures the cache's valid lines and LRU tick.
func (c *Cache) pack() packedCache {
	n := c.ValidLines()
	p := packedCache{slots: len(c.sets), idx: make([]int32, 0, n), lines: make([]line, 0, n), tick: c.tick}
	for i := range c.sets {
		if c.sets[i].key != 0 {
			p.idx = append(p.idx, int32(i))
			p.lines = append(p.lines, c.sets[i])
		}
	}
	return p
}

// unpack replaces the cache's contents with a capture of the same shape:
// cleared, the captured lines scattered back, counters zeroed, marked
// untouched.
func (c *Cache) unpack(p packedCache) {
	clear(c.sets)
	for k, i := range p.idx {
		c.sets[i] = p.lines[k]
	}
	c.tick = p.tick
	c.stats = Stats{}
	c.last = nil
	c.untouched = true
}

func (p *packedCache) memBytes() int64 {
	return int64(len(p.idx))*int64(unsafe.Sizeof(int32(0))) + int64(len(p.lines))*int64(unsafe.Sizeof(line{}))
}

// PackedState is a packed capture of one processor's hierarchy contents
// (see the section comment above). It is immutable once taken and may be
// loaded into any number of shape-compatible hierarchies, concurrently.
type PackedState struct {
	l1, l2     packedCache
	tlb        []tlbEntry // nil when no TLB is modelled
	tlbTick    uint64
	victims    []victimEntry // nil when no victim buffer is attached
	victimTick uint64
}

// Pack captures the hierarchy's contents. It refuses while a
// miss-classification shadow is attached: the shadow holds per-access
// history a capture does not carry.
func (h *Hierarchy) Pack() (*PackedState, error) {
	if h.L1.classify != nil || h.L2.classify != nil {
		return nil, fmt.Errorf("cache: cannot pack with miss classification enabled")
	}
	ps := &PackedState{l1: h.L1.pack(), l2: h.L2.pack()}
	if h.TLB != nil {
		ps.tlb = append([]tlbEntry(nil), h.TLB.sets...)
		ps.tlbTick = h.TLB.tick
	}
	if h.victims != nil {
		ps.victims = append([]victimEntry(nil), h.victims.entries...)
		ps.victimTick = h.victims.tick
	}
	return ps, nil
}

// Unpack replaces the hierarchy's contents with a packed capture's,
// zeroes its counters (the memory source's included), clears every
// pointer hint, and marks every component untouched. The hierarchy must be shape-compatible with the captured
// one: same cache geometries, same TLB and victim-buffer presence.
func (h *Hierarchy) Unpack(ps *PackedState) error {
	if h.L1.classify != nil || h.L2.classify != nil {
		return fmt.Errorf("cache: cannot unpack with miss classification enabled")
	}
	if (h.TLB != nil) != (ps.tlb != nil) {
		return fmt.Errorf("cache: capture TLB presence mismatch")
	}
	if (h.victims != nil) != (ps.victims != nil) {
		return fmt.Errorf("cache: capture victim-buffer presence mismatch")
	}
	if ps.l1.slots != len(h.L1.sets) || ps.l2.slots != len(h.L2.sets) ||
		(h.TLB != nil && len(ps.tlb) != len(h.TLB.sets)) ||
		(h.victims != nil && len(ps.victims) != len(h.victims.entries)) {
		return fmt.Errorf("cache: capture geometry mismatch")
	}
	h.memo = [fastSlots]fastMemo{}
	h.L1.unpack(ps.l1)
	h.L2.unpack(ps.l2)
	if t := h.TLB; t != nil {
		copy(t.sets, ps.tlb)
		t.tick = ps.tlbTick
		t.stats = TLBStats{}
		t.last = nil
		t.hints = [tlbHintSlots]*tlbEntry{}
		t.untouched = true
	}
	if v := h.victims; v != nil {
		copy(v.entries, ps.victims)
		v.tick = ps.victimTick
		v.stats = VictimStats{}
		v.untouched = true
	}
	if m, ok := h.Source.(*MemorySource); ok {
		m.Fetches = 0
	}
	return nil
}

// MemBytes is the host memory the capture holds: the packed lines with
// their slot indices plus the TLB and victim-buffer copies.
func (ps *PackedState) MemBytes() int64 {
	return ps.l1.memBytes() + ps.l2.memBytes() +
		int64(len(ps.tlb))*int64(unsafe.Sizeof(tlbEntry{})) +
		int64(len(ps.victims))*int64(unsafe.Sizeof(victimEntry{}))
}

// UntouchedComponents reports which of the hierarchy's components no
// access or reset has reached since a capture was last loaded into it,
// as a subset of {"l1", "l2", "tlb", "victim"}. A hierarchy never loaded
// from a capture reports none.
func (h *Hierarchy) UntouchedComponents() []string {
	var out []string
	if h.L1.untouched {
		out = append(out, "l1")
	}
	if h.L2.untouched {
		out = append(out, "l2")
	}
	if h.TLB != nil && h.TLB.untouched {
		out = append(out, "tlb")
	}
	if h.victims != nil && h.victims.untouched {
		out = append(out, "victim")
	}
	return out
}
