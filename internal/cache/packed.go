package cache

import (
	"cmp"
	"fmt"
	"slices"
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
//
// Two captures are equivalent (PackedState.Equivalent) when no access
// stream can tell apart the hierarchies they load: every set holds the
// same valid keys in the same LRU order. Way positions and tick values
// need not match. A fill takes the first free way or the way of least
// tick, and new ticks count up from a level's own tick, so while a set's
// ticks are distinct and none exceeds its level's tick, both hierarchies
// make the same hits, misses and evictions, in the same LRU order ever
// after.

// packedCache is the valid-line content of one cache level.
type packedCache struct {
	slots int     // len(sets) of the captured level, for shape checks
	assoc int     // ways per set
	idx   []int32 // slot index of lines[k]
	lines []line
	tick  uint64
}

// pack captures the cache's valid lines and LRU tick.
func (c *Cache) pack() packedCache {
	n := c.ValidLines()
	p := packedCache{slots: len(c.sets), assoc: c.assoc, idx: make([]int32, 0, n), lines: make([]line, 0, n), tick: c.tick}
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
	tlbAssoc   int
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
		ps.tlbAssoc = h.TLB.cfg.Assoc
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

// lruRank is one valid way of a set as the equivalence check sees it:
// what it holds (a line key or a TLB page) and its LRU tick.
type lruRank struct{ key, lru uint64 }

// sameLRUOrder reports whether two captures of one set, a and b (their
// valid ways in any order), hold the same keys in the same LRU order,
// with no two ways on one tick and no tick past its level's (ta, tb). It
// sorts a and b.
func sameLRUOrder(a, b []lruRank, ta, tb uint64) bool {
	if len(a) != len(b) {
		return false
	}
	byLRU := func(x, y lruRank) int { return cmp.Compare(x.lru, y.lru) }
	slices.SortFunc(a, byLRU)
	slices.SortFunc(b, byLRU)
	for i := range a {
		if a[i].key != b[i].key || a[i].lru > ta || b[i].lru > tb {
			return false
		}
		if i > 0 && (a[i].lru == a[i-1].lru || b[i].lru == b[i-1].lru) {
			return false
		}
	}
	return true
}

// equivalent reports whether two captures of one cache level hold the
// same lines in the same LRU order, set by set (see sameLRUOrder). The
// packed lines are in slot order, so each set's lines are one run.
func (p *packedCache) equivalent(o *packedCache) bool {
	if p.slots != o.slots || p.assoc != o.assoc || len(p.idx) != len(o.idx) {
		return false
	}
	a, b := make([]lruRank, 0, p.assoc), make([]lruRank, 0, p.assoc)
	for i := 0; i < len(p.idx); {
		set := int(p.idx[i]) / p.assoc
		a, b = a[:0], b[:0]
		for j := i; j < len(p.idx) && int(p.idx[j])/p.assoc == set; j++ {
			a = append(a, lruRank{uint64(p.lines[j].key), p.lines[j].lru})
		}
		for j := i; j < len(o.idx) && int(o.idx[j])/o.assoc == set; j++ {
			b = append(b, lruRank{uint64(o.lines[j].key), o.lines[j].lru})
		}
		if !sameLRUOrder(a, b, p.tick, o.tick) {
			return false
		}
		i += len(a)
	}
	return true
}

// tlbEquivalent reports whether two TLB captures of one geometry hold
// the same pages in the same LRU order, set by set.
func tlbEquivalent(x, y []tlbEntry, assoc int, tx, ty uint64) bool {
	a, b := make([]lruRank, 0, assoc), make([]lruRank, 0, assoc)
	for s := 0; s < len(x); s += assoc {
		a, b = a[:0], b[:0]
		for w := s; w < s+assoc; w++ {
			if x[w].valid {
				a = append(a, lruRank{uint64(x[w].page), x[w].lru})
			}
			if y[w].valid {
				b = append(b, lruRank{uint64(y[w].page), y[w].lru})
			}
		}
		if !sameLRUOrder(a, b, tx, ty) {
			return false
		}
	}
	return true
}

// Equivalent reports whether ps and o load hierarchies that no access
// stream can tell apart (see the section comment above): the same
// geometry, and in every L1, L2 and TLB set the same valid keys in the
// same LRU order, with distinct ticks. A victim buffer must be equal
// entry for entry. The check is one pass over the packed lines.
func (ps *PackedState) Equivalent(o *PackedState) bool {
	if !ps.l1.equivalent(&o.l1) || !ps.l2.equivalent(&o.l2) {
		return false
	}
	if (ps.tlb == nil) != (o.tlb == nil) || len(ps.tlb) != len(o.tlb) || ps.tlbAssoc != o.tlbAssoc ||
		(ps.tlb != nil && !tlbEquivalent(ps.tlb, o.tlb, ps.tlbAssoc, ps.tlbTick, o.tlbTick)) {
		return false
	}
	return (ps.victims == nil) == (o.victims == nil) && slices.Equal(ps.victims, o.victims)
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
