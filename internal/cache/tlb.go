package cache

import (
	"fmt"

	"repro/internal/memsim"
)

// TLBConfig describes a data TLB. A zero value (Entries == 0) disables
// translation modelling.
type TLBConfig struct {
	Entries     int   // total entries (power of two)
	Assoc       int   // associativity; == Entries means fully associative
	PageSize    int   // bytes per page (power of two)
	MissLatency int64 // page-walk / software-refill cost in cycles
}

// Enabled reports whether the configuration models a TLB.
func (c TLBConfig) Enabled() bool { return c.Entries > 0 }

// Validate checks the configuration (only when enabled).
func (c TLBConfig) Validate() error {
	if !c.Enabled() {
		return nil
	}
	switch {
	case !memsim.IsPow2(c.Entries):
		return fmt.Errorf("tlb: entries %d not a power of two", c.Entries)
	case !memsim.IsPow2(c.Assoc) || c.Assoc > c.Entries:
		return fmt.Errorf("tlb: associativity %d invalid for %d entries", c.Assoc, c.Entries)
	case !memsim.IsPow2(c.PageSize):
		return fmt.Errorf("tlb: page size %d not a power of two", c.PageSize)
	case c.MissLatency < 0:
		return fmt.Errorf("tlb: negative miss latency")
	}
	return nil
}

// TLBStats counts translation events.
type TLBStats struct {
	Accesses int64
	Misses   int64
}

// MissRate returns misses/accesses (0 when untouched).
func (s TLBStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// tlbEntry is one translation slot.
type tlbEntry struct {
	page  memsim.Addr
	valid bool
	lru   uint64
}

// TLB is a set-associative, LRU data TLB. Translations are presence-only;
// the simulator has no distinct virtual and physical spaces, so the TLB
// models only the *cost* of translation locality, which is what the
// workloads feel.
type TLB struct {
	cfg      TLBConfig
	sets     []tlbEntry
	tick     uint64
	stats    TLBStats
	setMask  memsim.Addr
	setShift uint

	// last points at the slot of the most recent translation (hit or
	// refill); the hierarchy's memoizer reuses it to avoid a second scan.
	last *tlbEntry

	// hints short-circuits the set scan: a hash-indexed table of
	// candidate slots for recently translated pages. A page lives in at
	// most one slot, so a verified hint (valid, matching page) yields
	// exactly the entry the scan would find — pure search-order
	// optimization, observably identical, and worth a lot on the
	// R10000's fully-associative TLB where the scan is all 64 entries.
	hints [tlbHintSlots]*tlbEntry

	// untouched reports that no translation or reset has reached the
	// TLB since a capture was loaded into it (see packed.go).
	untouched bool
}

// tlbHintSlots is the translation hint table size (power of two).
const tlbHintSlots = 128

// tlbHint maps a page number to its hint slot (Fibonacci hashing, so
// lockstep page streams don't collide persistently).
func tlbHint(page memsim.Addr) int {
	return int((uint64(page) * 0x9E3779B97F4A7C15) >> 57)
}

// NewTLB builds a TLB; it panics on invalid configuration (configs are
// validated with machine configs first) and returns nil for a disabled
// one.
func NewTLB(cfg TLBConfig) *TLB {
	if !cfg.Enabled() {
		return nil
	}
	if err := cfg.Validate(); err != nil {
		panic("cache: " + err.Error())
	}
	t := &TLB{
		cfg:  cfg,
		sets: make([]tlbEntry, cfg.Entries),
	}
	numSets := cfg.Entries / cfg.Assoc
	t.setMask = memsim.Addr(numSets - 1)
	for s := cfg.PageSize; s > 1; s >>= 1 {
		t.setShift++
	}
	return t
}

// Config returns the TLB's configuration.
func (t *TLB) Config() TLBConfig { return t.cfg }

// Stats returns a copy of the counters.
func (t *TLB) Stats() TLBStats { return t.stats }

// Reset empties the TLB and zeroes its statistics.
func (t *TLB) Reset() {
	clear(t.sets)
	t.untouched = false
	t.tick = 0
	t.stats = TLBStats{}
	t.last = nil
	t.hints = [tlbHintSlots]*tlbEntry{}
}

// ResetStats zeroes counters, keeping contents.
func (t *TLB) ResetStats() { t.stats = TLBStats{} }

// EmitMetrics reports the TLB's counters (metrics Source contract).
func (t *TLB) EmitMetrics(emit func(name string, value int64)) {
	emit("accesses", t.stats.Accesses)
	emit("misses", t.stats.Misses)
}

// Access translates addr, returning the cycle cost (0 on a hit, the miss
// latency on a refill). Misses install the page, LRU within the set.
func (t *TLB) Access(addr memsim.Addr) int64 {
	t.untouched = false
	t.stats.Accesses++
	page := addr >> t.setShift
	t.tick++
	hint := &t.hints[tlbHint(page)]
	if e := *hint; e != nil && e.valid && e.page == page {
		e.lru = t.tick
		t.last = e
		return 0
	}
	setIdx := int(page & t.setMask)
	set := t.sets[setIdx*t.cfg.Assoc : (setIdx+1)*t.cfg.Assoc]
	for i := range set {
		if set[i].valid && set[i].page == page {
			set[i].lru = t.tick
			t.last = &set[i]
			*hint = &set[i]
			return 0
		}
	}
	t.stats.Misses++
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = tlbEntry{page: page, valid: true, lru: t.tick}
	t.last = &set[victim]
	*hint = &set[victim]
	return t.cfg.MissLatency
}

// entryPtr returns a pointer to the slot holding addr's translation, or
// nil on a TLB miss. Pointers stay valid for the TLB's lifetime; the
// hierarchy's fast path memoizes recently translated pages' entries so a
// same-page access can re-touch one — after re-verifying its page and
// validity — without the set scan.
func (t *TLB) entryPtr(addr memsim.Addr) *tlbEntry {
	t.untouched = false
	page := addr >> t.setShift
	setIdx := int(page & t.setMask)
	set := t.sets[setIdx*t.cfg.Assoc : (setIdx+1)*t.cfg.Assoc]
	for i := range set {
		if set[i].valid && set[i].page == page {
			return &set[i]
		}
	}
	return nil
}

// touchFast repeats a translation hit on a memoized entry, with exactly
// the bookkeeping Access's hit path performs (access count, LRU tick) and
// none of the set scan. The caller guarantees the entry is still the valid
// translation of the accessed page by checking it immediately beforehand.
func (t *TLB) touchFast(e *tlbEntry) {
	t.stats.Accesses++
	t.tick++
	e.lru = t.tick
}

// Reach returns the bytes of address space the TLB can map.
func (t *TLB) Reach() int { return t.cfg.Entries * t.cfg.PageSize }
