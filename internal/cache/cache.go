package cache

import (
	"fmt"

	"repro/internal/memsim"
)

// line is one cache line's bookkeeping in one 16-byte record. key packs
// the line-aligned address and the MSI state into one word: line sizes
// are at least 4 bytes (Config.Validate), so the state fits in the two
// low bits. An Invalid line has key 0, so a single compare of key against
// address|state both matches the tag and checks the state.
type line struct {
	key memsim.Addr // line-aligned address | State; 0 when Invalid
	lru uint64      // larger = more recently used
}

// stateMask selects the state bits of a line key.
const stateMask = memsim.Addr(3)

// lineKey is the key of lineAddr held in state st.
func lineKey(lineAddr memsim.Addr, st State) memsim.Addr { return lineAddr | memsim.Addr(st) }

// state returns the line's MSI state (Invalid for an empty slot).
func (l *line) state() State { return State(l.key & stateMask) }

// tag returns the line-aligned address of a valid line.
func (l *line) tag() memsim.Addr { return l.key &^ stateMask }

// holds reports whether the slot holds lineAddr in a valid state. Only
// Shared (1) and Modified (2) make key^lineAddr-1 fall below 2: a slot
// with another tag differs above the state bits, and an Invalid slot
// (key 0) wraps to the largest word, even for address 0.
func (l *line) holds(lineAddr memsim.Addr) bool { return (l.key^lineAddr)-1 < 2 }

// Cache is a single set-associative, write-back, write-allocate cache level
// with LRU replacement. It models presence and coherence state only; data
// values live in memsim arrays.
type Cache struct {
	cfg      Config
	sets     []line // numSets * assoc, set-major
	tick     uint64
	stats    Stats
	classify *classifier // nil unless EnableClassification was called

	setMask  memsim.Addr
	setShift uint
	assoc    int

	// last points at the slot of the most recent demand hit or fill — a
	// hint for the hierarchy's memoizer, which would otherwise repeat the
	// set search the access just performed. Like all fast-path hints it
	// is verified against the slot's own key before use.
	last *line

	// untouched reports that no lookup, fill or reset has reached the
	// cache since a capture was loaded into it (see packed.go).
	untouched bool
}

// New builds a cache from cfg. It panics on invalid configuration; machine
// presets are validated at construction time, so a bad config is a
// programming error.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic("cache: " + err.Error())
	}
	c := &Cache{
		cfg:   cfg,
		sets:  make([]line, cfg.NumSets()*cfg.Assoc),
		assoc: cfg.Assoc,
	}
	c.setMask = memsim.Addr(cfg.NumSets() - 1)
	for s := cfg.LineSize; s > 1; s >>= 1 {
		c.setShift++
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// EnableClassification attaches a fully-associative shadow cache of equal
// capacity so that every demand miss is classified as compulsory, capacity,
// or conflict (Hill's scheme). It costs memory proportional to the workload
// footprint and is therefore opt-in.
func (c *Cache) EnableClassification() {
	c.classify = newClassifier(c.cfg.NumLines())
}

// ResetStats zeroes the event counters without disturbing cache contents.
// It is used after warm-up phases (e.g. the simulated prior parallel
// section) so that reported statistics cover only the measured region.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// EmitMetrics reports the cache's counters (metrics Source contract).
func (c *Cache) EmitMetrics(emit func(name string, value int64)) { c.stats.Emit(emit) }

// Reset empties the cache and zeroes its statistics. The classification
// shadow, if any, is reset too.
func (c *Cache) Reset() {
	clear(c.sets)
	c.untouched = false
	c.tick = 0
	c.stats = Stats{}
	c.last = nil
	if c.classify != nil {
		c.classify.reset()
	}
}

// setFor returns the slice of ways for the set containing lineAddr.
func (c *Cache) setFor(lineAddr memsim.Addr) []line {
	idx := int((lineAddr >> c.setShift) & c.setMask)
	return c.sets[idx*c.assoc : (idx+1)*c.assoc]
}

// find returns the way index of lineAddr within its set, or -1.
func (c *Cache) find(set []line, lineAddr memsim.Addr) int {
	for w := range set {
		if set[w].holds(lineAddr) {
			return w
		}
	}
	return -1
}

// lookup returns a pointer to the line's bookkeeping slot, or nil if the
// line is absent, consulting the last-hit hint before searching the set.
// The hint is verified against the slot's key so a stale one merely falls
// through to the scan; a present line occupies exactly one slot, so the
// hint and the scan can only agree.
//
// The pointer stays valid for the cache's lifetime (the backing array is
// allocated once in New and never moves); it dangles logically — not in
// memory — once the line is evicted, so the hierarchy's same-line memo,
// which holds it, re-verifies the slot's key before every use.
func (c *Cache) lookup(lineAddr memsim.Addr) *line {
	c.untouched = false
	if ln := c.last; ln != nil && ln.holds(lineAddr) {
		return ln
	}
	set := c.setFor(lineAddr)
	if w := c.find(set, lineAddr); w >= 0 {
		c.last = &set[w]
		return &set[w]
	}
	return nil
}

// touchFast repeats a demand hit on a line already known to be present
// (via a lookup memo), performing exactly the bookkeeping Touch's hit
// path performs — statistics, the LRU tick, the classification shadow —
// without the set search. Callers guarantee ln points at the valid slot
// for its line; the hierarchy's fast path establishes that by checking
// the slot's current key immediately before the call.
func (c *Cache) touchFast(ln *line) {
	c.stats.Accesses++
	c.stats.Hits++
	c.tick++
	ln.lru = c.tick
	if c.classify != nil {
		c.classify.touch(ln.tag())
	}
}

// Probe reports the line's state without touching LRU order or statistics.
// The address must be line-aligned.
func (c *Cache) Probe(lineAddr memsim.Addr) State {
	if ln := c.lookup(lineAddr); ln != nil {
		return ln.state()
	}
	return Invalid
}

// Touch performs a demand lookup. On a hit it updates LRU order; on a write
// hit to a Shared line it does NOT upgrade the state (the hierarchy must
// obtain write permission from the coherence layer first, then call
// SetState). Statistics are updated. The address must be line-aligned.
func (c *Cache) Touch(lineAddr memsim.Addr, write bool) (hit bool, st State) {
	c.stats.Accesses++
	ln := c.lookup(lineAddr)
	if ln == nil {
		c.stats.Misses++
		if write {
			c.stats.WriteMisses++
		} else {
			c.stats.ReadMisses++
		}
		if c.classify != nil {
			c.classifyMiss(lineAddr)
		}
		return false, Invalid
	}
	c.stats.Hits++
	c.tick++
	ln.lru = c.tick
	c.last = ln
	if c.classify != nil {
		c.classify.touch(lineAddr)
	}
	return true, ln.state()
}

// classifyMiss records a demand miss in the shadow structures and bumps the
// corresponding classification counter.
func (c *Cache) classifyMiss(lineAddr memsim.Addr) {
	switch c.classify.classifyMiss(lineAddr) {
	case missCompulsory:
		c.stats.Compulsory++
	case missCapacity:
		c.stats.Capacity++
	case missConflict:
		c.stats.Conflict++
	}
}

// Victim describes a line displaced by a Fill.
type Victim struct {
	Addr     memsim.Addr
	Modified bool // the victim was dirty and must be written back
	Valid    bool // false when an Invalid way was used (no displacement)
}

// Fill installs lineAddr in state st, displacing the LRU way if the set is
// full. prefetch marks the fill as prefetch-initiated for statistics.
// It panics if the line is already present (fills must follow misses) or if
// st is Invalid.
func (c *Cache) Fill(lineAddr memsim.Addr, st State, prefetch bool) Victim {
	if st == Invalid {
		panic("cache: Fill with Invalid state")
	}
	c.untouched = false
	set := c.setFor(lineAddr)
	// One scan checks the line is absent and chooses the victim: the
	// first Invalid way if one exists, else the first way of least LRU
	// tick.
	free, lru := -1, 0
	for w := range set {
		switch {
		case set[w].key == 0:
			if free < 0 {
				free = w
			}
		case set[w].holds(lineAddr):
			panic(fmt.Sprintf("cache %s: Fill(%s) but line already present", c.cfg.Name, lineAddr))
		case set[w].lru < set[lru].lru:
			lru = w
		}
	}
	var v Victim
	victim := free
	if free < 0 {
		victim = lru
		old := &set[victim]
		v = Victim{Addr: old.tag(), Modified: old.state() == Modified, Valid: true}
		c.stats.Evictions++
		if v.Modified {
			c.stats.Writebacks++
		}
	}
	c.tick++
	set[victim] = line{key: lineKey(lineAddr, st), lru: c.tick}
	c.last = &set[victim]
	c.stats.Fills++
	if prefetch {
		c.stats.PrefetchFills++
	}
	return v
}

// SetState changes the state of a present line (e.g. S->M after a coherence
// upgrade). It reports whether the line was present. Upgrades are counted.
// It panics if st is Invalid: removal is Invalidate's job, and an Invalid
// state beside a tag would break the key encoding.
func (c *Cache) SetState(lineAddr memsim.Addr, st State) bool {
	if st == Invalid {
		panic("cache: SetState to Invalid")
	}
	ln := c.lookup(lineAddr)
	if ln == nil {
		return false
	}
	if ln.state() == Shared && st == Modified {
		c.stats.Upgrades++
	}
	ln.key = lineKey(lineAddr, st)
	return true
}

// Invalidate removes the line if present, returning its prior state.
// Coherence-initiated removals are counted as invalidations.
func (c *Cache) Invalidate(lineAddr memsim.Addr) (prior State) {
	ln := c.lookup(lineAddr)
	if ln == nil {
		return Invalid
	}
	prior = ln.state()
	*ln = line{}
	c.stats.Invalidations++
	return prior
}

// Downgrade forces a Modified line to Shared (a remote reader snooped it).
// It reports the prior state; Invalid means the line was absent.
func (c *Cache) Downgrade(lineAddr memsim.Addr) (prior State) {
	ln := c.lookup(lineAddr)
	if ln == nil {
		return Invalid
	}
	prior = ln.state()
	if prior == Modified {
		ln.key = lineKey(lineAddr, Shared)
		c.stats.Downgrades++
	}
	return prior
}

// ValidLines returns the number of lines currently present, for tests and
// occupancy reports.
func (c *Cache) ValidLines() int {
	n := 0
	for i := range c.sets {
		if c.sets[i].key != 0 {
			n++
		}
	}
	return n
}

// ForEachLine calls f for every valid line. Iteration order is set-major
// and deterministic.
func (c *Cache) ForEachLine(f func(addr memsim.Addr, st State)) {
	for i := range c.sets {
		if ln := &c.sets[i]; ln.key != 0 {
			f(ln.tag(), ln.state())
		}
	}
}
