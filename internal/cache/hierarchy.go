package cache

import (
	"fmt"

	"repro/internal/memsim"
)

// LineSource supplies lines that miss the entire private hierarchy and
// arbitrates write permission. The uniprocessor implementation is
// MemorySource; the multiprocessor implementation is the snooping bus in
// internal/coherence.
type LineSource interface {
	// FetchLine obtains the L2-line at lineAddr. It returns the latency of
	// the fetch beyond the hierarchy's own lookup costs and the coherence
	// state the line should be installed in (Modified for writes, Shared
	// or Modified for reads depending on remote copies).
	FetchLine(lineAddr memsim.Addr, write bool) (lat int64, st State)
	// UpgradeLine obtains write permission for a line held Shared,
	// invalidating remote copies. It returns the latency of doing so.
	UpgradeLine(lineAddr memsim.Addr) int64
	// WritebackLine is notified when a Modified line leaves the hierarchy.
	// Writebacks are buffered on the paper's machines, so no latency is
	// charged; the notification exists for statistics and memory-state
	// bookkeeping.
	WritebackLine(lineAddr memsim.Addr)
}

// MemorySource is the uniprocessor LineSource: every fetch costs the fixed
// memory latency.
type MemorySource struct {
	Latency int64
	Fetches int64 // number of memory fetches served
}

// FetchLine implements LineSource.
func (m *MemorySource) FetchLine(_ memsim.Addr, write bool) (int64, State) {
	m.Fetches++
	if write {
		return m.Latency, Modified
	}
	return m.Latency, Shared
}

// UpgradeLine implements LineSource; with no other caches an upgrade is free.
func (m *MemorySource) UpgradeLine(memsim.Addr) int64 { return 0 }

// WritebackLine implements LineSource.
func (m *MemorySource) WritebackLine(memsim.Addr) {}

// Reset zeroes the fetch counter (memory has no cached contents to drop).
func (m *MemorySource) Reset() { m.Fetches = 0 }

// ResetStats zeroes the fetch counter.
func (m *MemorySource) ResetStats() { m.Fetches = 0 }

// EmitMetrics reports the fetch counter (metrics Source contract).
func (m *MemorySource) EmitMetrics(emit func(name string, value int64)) {
	emit("fetches", m.Fetches)
}

// Level identifies which level of the memory system satisfied an access.
type Level uint8

const (
	// LevelL1 means the access hit in the first-level cache.
	LevelL1 Level = 1
	// LevelL2 means the access missed L1 and hit L2.
	LevelL2 Level = 2
	// LevelMem means the access missed the private hierarchy entirely.
	LevelMem Level = 3
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMem:
		return "mem"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// Result describes one access: its total latency, the level that satisfied
// it, and the portion of the latency beyond the L1 hit cost (the part a
// non-blocking cache can overlap with other outstanding misses).
type Result struct {
	Cycles      int64
	Level       Level
	MissPenalty int64
}

// Hierarchy is one processor's private L1+L2 pair in front of a LineSource.
// L2 includes L1: every L1 line's data is also present in L2, and L2
// evictions back-invalidate the corresponding L1 lines. A Modified L1 line
// implies the enclosing L2 line is Modified.
type Hierarchy struct {
	L1, L2 *Cache
	Source LineSource

	// StoreBuffered models a write buffer: stores perform their full
	// state transitions (allocation, coherence upgrades, statistics) but
	// charge only the L1 issue latency to the executing instruction
	// stream — both paper machines retire stores through store buffers,
	// so store misses and invalidation round-trips are off the critical
	// path. Loads are unaffected.
	StoreBuffered bool

	// TLB, when non-nil, models address translation: every demand access
	// consults it, and a miss serially adds the page-walk latency.
	// Helpers warm the TLB as a side effect of their accesses, exactly as
	// they warm the caches.
	TLB *TLB

	// FastPath enables the same-line short-circuit: a demand access that
	// lands in a recently-accessed L1 line skips the TLB scan, set
	// search, and multi-line span logic, and re-touches the memoized line
	// directly. The shortcut is observably identical to the full path —
	// same latency, same counters, same LRU ticks — because it only ever
	// applies when the full path would have been a pure L1 (and TLB) hit;
	// see DESIGN.md §4 for the invariants. Off by default so
	// direct-construction tests exercise the reference path; machines
	// switch it on for EngineFast configurations.
	FastPath bool

	victims *victimBuffer

	// memo is the same-line hint table: a small direct-mapped cache over
	// recent single-line accesses, indexed by L1 line address. Entries
	// are *hints*, not authority — every use re-verifies the pointed-at
	// L1 slot's key (tag and state in one word) and TLB slot (page and
	// validity) against the accessed line, so an entry staled by an
	// eviction, invalidation, downgrade, TLB refill or a hash collision
	// simply fails verification and falls back to the full path. No
	// event in the hierarchy needs to clear hints.
	memo [fastSlots]fastMemo
}

// fastSlots is the hint table size: a power of two, sized to cover the
// distinct lines live inside one loop iteration — a handful of array
// streams plus index tables, and for gather loops the L1-resident slice
// of the gathered array — with room for churn.
const fastSlots = 256

// fastIdx maps a line address to its hint slot. A multiplicative hash
// (Fibonacci hashing) rather than direct line-bit indexing: the live
// lines of two lockstep array streams advance together, so any direct
// congruence collision between them would persist for the whole loop and
// thrash both streams' hints; hashing makes collisions incidental.
func fastIdx(line memsim.Addr) int {
	return int((uint64(line) * 0x9E3779B97F4A7C15) >> 56)
}

// fastMemo is one hint: a claim that the accessed L1 line occupies the
// slot *ln and (when a TLB is modelled) that its page occupies the slot
// *tlb. The slots themselves say which line and page they hold, so the
// hint carries nothing else. The pointers reach into backing arrays that
// are allocated once and never move, so a stale hint dangles only
// logically; verification against the slots' current contents makes
// using one safe.
type fastMemo struct {
	ln  *line
	tlb *tlbEntry
}

// EnableVictimBuffer attaches a fully-associative victim cache of the
// given entry count beside L1; victim hits cost the L1 latency plus lat.
func (h *Hierarchy) EnableVictimBuffer(entries int, lat int64) {
	h.victims = newVictimBuffer(entries, lat)
}

// VictimStats returns the victim buffer's counters (zero when disabled).
func (h *Hierarchy) VictimStats() VictimStats {
	if h.victims == nil {
		return VictimStats{}
	}
	return h.victims.stats
}

// NewHierarchy builds a hierarchy over the given source. The L2 line size
// must be a multiple of the L1 line size (true of both paper machines).
func NewHierarchy(l1, l2 Config, src LineSource) *Hierarchy {
	if l2.LineSize%l1.LineSize != 0 {
		panic(fmt.Sprintf("cache: L2 line size %d not a multiple of L1 line size %d", l2.LineSize, l1.LineSize))
	}
	if l2.Size < l1.Size {
		panic(fmt.Sprintf("cache: L2 size %d smaller than L1 size %d; inclusion impossible", l2.Size, l1.Size))
	}
	return &Hierarchy{L1: New(l1), L2: New(l2), Source: src}
}

// StatSource is one stat-bearing component of a hierarchy. Reset drops
// contents and counters; ResetStats zeroes counters only; EmitMetrics
// reports every counter under a component-local name (the metrics Source
// contract — see internal/metrics).
type StatSource interface {
	Reset()
	ResetStats()
	EmitMetrics(emit func(name string, value int64))
}

// NamedSource is a StatSource with the hierarchy-local name it is known by.
type NamedSource struct {
	Name string
	StatSource
}

// StatSources enumerates every stat-bearing component of the hierarchy, in
// a fixed order. Reset, ResetStats, and metrics registration all walk this
// one list, so a component added here can never be zeroed by one reset
// path but leak through another (the victim-buffer bug this replaces: the
// buffer was reset by Reset but skipped by ResetStats, so its counters
// bled across the warm-up/measured-region boundary). The LineSource is
// included when it carries stats of its own (MemorySource does; bus ports
// do not — the bus is registered once at machine level, not per
// hierarchy).
func (h *Hierarchy) StatSources() []NamedSource {
	srcs := []NamedSource{{"l1", h.L1}, {"l2", h.L2}}
	if h.TLB != nil {
		srcs = append(srcs, NamedSource{"tlb", h.TLB})
	}
	if h.victims != nil {
		srcs = append(srcs, NamedSource{"victim", h.victims})
	}
	if s, ok := h.Source.(StatSource); ok {
		srcs = append(srcs, NamedSource{"mem", s})
	}
	return srcs
}

// Reset empties every component (levels, TLB, victim buffer) and clears
// statistics.
func (h *Hierarchy) Reset() {
	h.memo = [fastSlots]fastMemo{}
	for _, s := range h.StatSources() {
		s.Reset()
	}
}

// ResetStats zeroes all counters, keeping contents.
func (h *Hierarchy) ResetStats() {
	for _, s := range h.StatSources() {
		s.ResetStats()
	}
}

// Access performs a demand access of size bytes at addr, spanning as many
// L1 lines as needed (element accesses in the workloads span exactly one).
// It returns the aggregate latency and the deepest level touched.
func (h *Hierarchy) Access(addr memsim.Addr, size int, write bool) Result {
	if size <= 0 {
		panic(fmt.Sprintf("cache: Access size %d", size))
	}
	first := addr.Line(h.L1.cfg.LineSize)
	last := (addr + memsim.Addr(size) - 1).Line(h.L1.cfg.LineSize)
	// Same-line fast path: a verified hint proves the line is L1-resident
	// in a sufficient state — any valid state for a read, Modified for a
	// write (a Shared-line write needs the coherence upgrade) — and that
	// its page translation is resident (an L1 line never spans pages), so
	// the full path would have been a pure L1+TLB hit. Re-touch the
	// memoized slots with the exact bookkeeping of the full hit path and
	// skip all searching.
	if h.FastPath && first == last {
		m := &h.memo[fastIdx(first)]
		if m.ln != nil && (m.ln.key == lineKey(first, Modified) || (!write && m.ln.key == lineKey(first, Shared))) &&
			(h.TLB == nil || (m.tlb.valid && m.tlb.page == first>>h.TLB.setShift)) {
			h.L1.touchFast(m.ln)
			if h.TLB != nil {
				h.TLB.touchFast(m.tlb)
			}
			return Result{Cycles: h.L1.cfg.HitLatency, Level: LevelL1}
		}
	}
	var walk int64
	if h.TLB != nil {
		// One translation per access; elements are naturally aligned and
		// never span pages. The walk serializes with the access.
		walk = h.TLB.Access(addr)
	}
	res := h.accessLine(first, write)
	res.Cycles += walk
	for l := first + memsim.Addr(h.L1.cfg.LineSize); l <= last; l += memsim.Addr(h.L1.cfg.LineSize) {
		r := h.accessLine(l, write)
		res.Cycles += r.Cycles
		res.MissPenalty += r.MissPenalty
		if r.Level > res.Level {
			res.Level = r.Level
		}
	}
	if h.FastPath && first == last {
		h.memoize(first)
	}
	return res
}

// memoize records the just-completed single-line access in the hint
// table. Only the single-line case is memoized: spanning accesses are not
// worth short-circuiting, and the workloads' element accesses never span
// lines. The demand access just completed, so the line is L1-resident
// (and `last` points at its slot) and its page freshly translated; the
// verified-fallback searches fail safe (no hint) should a future change
// break either invariant.
func (h *Hierarchy) memoize(first memsim.Addr) {
	ln := h.L1.last
	if ln == nil || !ln.holds(first) {
		if ln = h.L1.lookup(first); ln == nil {
			return
		}
	}
	m := &h.memo[fastIdx(first)]
	if h.TLB != nil {
		e := h.TLB.last
		if e == nil || !e.valid || e.page != first>>h.TLB.setShift {
			if e = h.TLB.entryPtr(first); e == nil {
				return
			}
		}
		m.tlb = e
	}
	m.ln = ln
}

// accessLine handles a single L1-line-aligned demand access.
func (h *Hierarchy) accessLine(l1Addr memsim.Addr, write bool) Result {
	res := h.accessLineTimed(l1Addr, write)
	if write && h.StoreBuffered {
		return Result{Cycles: h.L1.cfg.HitLatency, Level: res.Level}
	}
	return res
}

// accessLineTimed performs the access with full latency accounting.
func (h *Hierarchy) accessLineTimed(l1Addr memsim.Addr, write bool) Result {
	l2Addr := l1Addr.Line(h.L2.cfg.LineSize)
	cycles := h.L1.cfg.HitLatency

	if hit, st := h.L1.Touch(l1Addr, write); hit {
		if write && st == Shared {
			// Write permission must come from the coherence layer.
			cycles += h.Source.UpgradeLine(l2Addr)
			h.L2.SetState(l2Addr, Modified)
			h.L1.SetState(l1Addr, Modified)
		}
		return Result{Cycles: cycles, Level: LevelL1}
	}

	if h.victims != nil {
		if st, ok := h.victims.take(l1Addr); ok {
			cycles += h.victims.lat
			if write && st == Shared {
				cycles += h.Source.UpgradeLine(l2Addr)
				h.L2.SetState(l2Addr, Modified)
				st = Modified
			} else if write {
				st = Modified
			}
			h.fillL1(l1Addr, st, false)
			return Result{Cycles: cycles, Level: LevelL1, MissPenalty: h.victims.lat}
		}
	}

	cycles += h.L2.cfg.HitLatency
	if hit, st := h.L2.Touch(l2Addr, write); hit {
		if write && st == Shared {
			cycles += h.Source.UpgradeLine(l2Addr)
			h.L2.SetState(l2Addr, Modified)
			st = Modified
		}
		l1State := st
		if write {
			l1State = Modified
		}
		h.fillL1(l1Addr, l1State, false)
		return Result{Cycles: cycles, Level: LevelL2, MissPenalty: cycles - h.L1.cfg.HitLatency}
	}

	lat, st := h.Source.FetchLine(l2Addr, write)
	cycles += lat
	h.fillL2(l2Addr, st, false)
	h.fillL1(l1Addr, st, false)
	return Result{Cycles: cycles, Level: LevelMem, MissPenalty: cycles - h.L1.cfg.HitLatency}
}

// fillL1 installs an L1 line and hands a displaced line to the victim
// buffer. L2 needs no update: every path that fills L1 in Modified state
// has already made the enclosing L2 line Modified (a write miss fetches
// it Modified, a write hit on a Shared L2 line upgrades it first, and a
// read fill copies L2's own state), and a dirty L1 victim's L2 line is
// Modified by the same invariant, so inclusion holds without a lookup.
// CheckInclusion verifies both after every loop of the cascade
// differential tests.
func (h *Hierarchy) fillL1(l1Addr memsim.Addr, st State, prefetch bool) {
	v := h.L1.Fill(l1Addr, st, prefetch)
	if v.Valid && h.victims != nil {
		vst := Shared
		if v.Modified {
			vst = Modified
		}
		h.victims.insert(v.Addr, vst)
	}
}

// fillL2 installs an L2 line, back-invalidating any L1 sublines of the
// victim and writing back dirty victims to the source.
func (h *Hierarchy) fillL2(l2Addr memsim.Addr, st State, prefetch bool) {
	v := h.L2.Fill(l2Addr, st, prefetch)
	if !v.Valid {
		return
	}
	dirty := v.Modified
	for sub := v.Addr; sub < v.Addr+memsim.Addr(h.L2.cfg.LineSize); sub += memsim.Addr(h.L1.cfg.LineSize) {
		if h.L1.Invalidate(sub) == Modified {
			dirty = true
		}
	}
	if h.victims != nil {
		h.victims.invalidate(v.Addr, h.L2.cfg.LineSize)
	}
	if dirty {
		h.Source.WritebackLine(v.Addr)
	}
}

// PrefetchLine installs the L2 line containing addr (and its first L1
// subline) without charging demand latency or demand statistics. It models
// both the compiler-inserted prefetches of the R10000's MIPSpro toolchain
// and hardware preload instructions. It reports whether a fetch from the
// source was needed.
func (h *Hierarchy) PrefetchLine(addr memsim.Addr) bool {
	l1Addr := addr.Line(h.L1.cfg.LineSize)
	l2Addr := addr.Line(h.L2.cfg.LineSize)
	if h.FastPath {
		// A verified hint answers the L1 presence probe without a set
		// search (Probe reads state only — no stats, no LRU — so the
		// short-cut is trivially identical).
		if m := &h.memo[fastIdx(l1Addr)]; m.ln != nil && m.ln.holds(l1Addr) {
			return false
		}
	}
	if h.L1.Probe(l1Addr) != Invalid {
		return false
	}
	if st := h.L2.Probe(l2Addr); st != Invalid {
		// Promote to L1 only; state follows L2's.
		h.fillL1(l1Addr, st, true)
		return false
	}
	_, st := h.Source.FetchLine(l2Addr, false)
	h.fillL2(l2Addr, st, true)
	h.fillL1(l1Addr, st, true)
	return true
}

// Probe reports the hierarchy's coherence state for the L2 line at addr.
func (h *Hierarchy) Probe(addr memsim.Addr) State {
	return h.L2.Probe(addr.Line(h.L2.cfg.LineSize))
}

// CoherenceInvalidate removes the L2 line (and its L1 sublines) in response
// to a remote write. It reports whether any removed copy was Modified, in
// which case the caller (the bus) takes responsibility for the data.
func (h *Hierarchy) CoherenceInvalidate(l2Addr memsim.Addr) (wasModified bool) {
	for sub := l2Addr; sub < l2Addr+memsim.Addr(h.L2.cfg.LineSize); sub += memsim.Addr(h.L1.cfg.LineSize) {
		if h.L1.Invalidate(sub) == Modified {
			wasModified = true
		}
	}
	if h.victims != nil {
		h.victims.invalidate(l2Addr, h.L2.cfg.LineSize)
	}
	if h.L2.Invalidate(l2Addr) == Modified {
		wasModified = true
	}
	return wasModified
}

// CoherenceDowngrade demotes a Modified line to Shared in response to a
// remote read, reporting whether this hierarchy held it Modified (and so
// supplies the data).
func (h *Hierarchy) CoherenceDowngrade(l2Addr memsim.Addr) (hadModified bool) {
	for sub := l2Addr; sub < l2Addr+memsim.Addr(h.L2.cfg.LineSize); sub += memsim.Addr(h.L1.cfg.LineSize) {
		if h.L1.Downgrade(sub) == Modified {
			hadModified = true
		}
	}
	if h.victims != nil && h.victims.downgrade(l2Addr, h.L2.cfg.LineSize) {
		hadModified = true
	}
	if h.L2.Downgrade(l2Addr) == Modified {
		hadModified = true
	}
	return hadModified
}

// CheckInclusion verifies the L1-subset-of-L2 invariant, returning an error
// describing the first violation. It is O(L1 lines) and intended for tests.
func (h *Hierarchy) CheckInclusion() error {
	var err error
	h.L1.ForEachLine(func(addr memsim.Addr, st State) {
		if err != nil {
			return
		}
		l2Addr := addr.Line(h.L2.cfg.LineSize)
		l2st := h.L2.Probe(l2Addr)
		if l2st == Invalid {
			err = fmt.Errorf("L1 line %s (%s) has no enclosing L2 line", addr, st)
			return
		}
		if st == Modified && l2st != Modified {
			err = fmt.Errorf("L1 line %s is Modified but L2 line %s is %s", addr, l2Addr, l2st)
		}
	})
	return err
}
