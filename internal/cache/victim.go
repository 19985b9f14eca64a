package cache

import "repro/internal/memsim"

// VictimStats counts victim-buffer events.
type VictimStats struct {
	Hits    int64 // L1 misses satisfied by the buffer
	Inserts int64 // L1 evictions captured
}

// victimBuffer is a small fully-associative buffer holding lines recently
// evicted from L1 (Jouppi's victim cache). It exists to answer a question
// the paper raises implicitly: restructuring wins largely by removing
// conflict misses — would a small hardware victim cache have achieved the
// same? (The ablation's answer: it helps the L1 thrashing but cannot
// touch L2 conflicts or gather locality.)
//
// Entries are redundant with L2 (inclusion is maintained at L2), so
// silently dropping one loses no data; dirtiness was propagated into L2
// when the line left L1.
type victimBuffer struct {
	entries []victimEntry
	lat     int64
	tick    uint64
	stats   VictimStats

	// untouched reports that no lookup, insert, coherence action or
	// reset has reached the buffer since a capture was loaded into it
	// (see packed.go).
	untouched bool
}

type victimEntry struct {
	addr  memsim.Addr
	state State
	lru   uint64
}

// newVictimBuffer returns nil for entries <= 0 (disabled).
func newVictimBuffer(entries int, lat int64) *victimBuffer {
	if entries <= 0 {
		return nil
	}
	return &victimBuffer{entries: make([]victimEntry, entries), lat: lat}
}

// take removes and returns the entry for addr, if present.
func (v *victimBuffer) take(addr memsim.Addr) (State, bool) {
	v.untouched = false
	for i := range v.entries {
		if v.entries[i].state != Invalid && v.entries[i].addr == addr {
			st := v.entries[i].state
			v.entries[i] = victimEntry{}
			v.stats.Hits++
			return st, true
		}
	}
	return Invalid, false
}

// insert records an evicted L1 line, displacing the LRU entry.
func (v *victimBuffer) insert(addr memsim.Addr, st State) {
	v.untouched = false
	v.tick++
	victim := 0
	for i := range v.entries {
		if v.entries[i].state == Invalid {
			victim = i
			break
		}
		if v.entries[i].lru < v.entries[victim].lru {
			victim = i
		}
	}
	v.entries[victim] = victimEntry{addr: addr, state: st, lru: v.tick}
	v.stats.Inserts++
}

// invalidate drops any entry covered by the L2-line range [addr,
// addr+span) (coherence or back-invalidation).
func (v *victimBuffer) invalidate(addr memsim.Addr, span int) {
	v.untouched = false
	for i := range v.entries {
		e := &v.entries[i]
		if e.state != Invalid && e.addr >= addr && e.addr < addr+memsim.Addr(span) {
			*e = victimEntry{}
		}
	}
}

// downgrade demotes covered Modified entries to Shared.
func (v *victimBuffer) downgrade(addr memsim.Addr, span int) (hadModified bool) {
	v.untouched = false
	for i := range v.entries {
		e := &v.entries[i]
		if e.state == Modified && e.addr >= addr && e.addr < addr+memsim.Addr(span) {
			e.state = Shared
			hadModified = true
		}
	}
	return hadModified
}

// Reset clears entries and statistics.
func (v *victimBuffer) Reset() {
	clear(v.entries)
	v.untouched = false
	v.tick = 0
	v.stats = VictimStats{}
}

// ResetStats zeroes counters, keeping buffered lines.
func (v *victimBuffer) ResetStats() { v.stats = VictimStats{} }

// EmitMetrics reports the buffer's counters (metrics Source contract).
func (v *victimBuffer) EmitMetrics(emit func(name string, value int64)) {
	emit("hits", v.stats.Hits)
	emit("inserts", v.stats.Inserts)
}
