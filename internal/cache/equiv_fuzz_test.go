package cache

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/memsim"
)

// snoopBus is a write-invalidate MSI bus over several hierarchies, the
// protocol internal/coherence implements, kept here so that captures of
// multi-processor state can be tested inside this package.
type snoopBus struct {
	nodes                        []*Hierarchy
	fetches, supplies, writeback int64
}

type snoopPort struct {
	bus  *snoopBus
	self int
}

func (p snoopPort) FetchLine(a memsim.Addr, write bool) (int64, State) {
	st := Shared
	if write {
		st = Modified
	}
	supplied := false
	for i, n := range p.bus.nodes {
		switch {
		case i == p.self:
		case write && n.Probe(a) != Invalid:
			supplied = n.CoherenceInvalidate(a) || supplied
		case !write && n.Probe(a) == Modified:
			supplied = n.CoherenceDowngrade(a) || supplied
		}
	}
	if supplied {
		p.bus.supplies++
		return 40, st
	}
	p.bus.fetches++
	return 100, st
}

func (p snoopPort) UpgradeLine(a memsim.Addr) int64 {
	var lat int64
	for i, n := range p.bus.nodes {
		if i != p.self && n.Probe(a) != Invalid {
			n.CoherenceInvalidate(a)
			lat = 20
		}
	}
	return lat
}

func (p snoopPort) WritebackLine(memsim.Addr) { p.bus.writeback++ }

// equivGeometry is one random small machine: processors, both cache
// levels, the TLB and an optional victim buffer.
type equivGeometry struct {
	procs   int
	l1, l2  Config
	tlb     TLBConfig
	victims int
	fast    bool
	space   int // bytes of address space the streams touch
}

func randomGeometry(rng *rand.Rand) equivGeometry {
	pick := func(opts ...int) int { return opts[rng.Intn(len(opts))] }
	l1Line := pick(16, 32)
	l1 := Config{Name: "L1", LineSize: l1Line, Assoc: pick(1, 2, 4), HitLatency: 2}
	l1.Size = l1.Assoc * l1Line * pick(1, 2, 4, 8)
	l2 := Config{Name: "L2", LineSize: l1Line * pick(1, 2, 4), Assoc: pick(1, 2, 4), HitLatency: 7}
	l2.Size = l2.Assoc * l2.LineSize * pick(2, 4, 8, 16)
	for l2.Size < l1.Size {
		l2.Size *= 2
	}
	entries := pick(4, 8, 16)
	g := equivGeometry{
		procs: 1 + rng.Intn(3), l1: l1, l2: l2,
		tlb:  TLBConfig{Entries: entries, Assoc: pick(1, 2, entries), PageSize: pick(256, 512), MissLatency: 30},
		fast: rng.Intn(2) == 0,
	}
	if rng.Intn(4) == 0 {
		g.victims = 2
	}
	g.space = 4 * l2.Size
	return g
}

// build returns the geometry's hierarchies on one snooping bus.
func (g equivGeometry) build() ([]*Hierarchy, *snoopBus) {
	bus := &snoopBus{}
	for p := 0; p < g.procs; p++ {
		h := NewHierarchy(g.l1, g.l2, snoopPort{bus, p})
		h.TLB = NewTLB(g.tlb)
		h.EnableVictimBuffer(g.victims, 1)
		h.FastPath = g.fast
		bus.nodes = append(bus.nodes, h)
	}
	return bus.nodes, bus
}

// run drives the hierarchies with the stream ops encodes, three bytes an
// access: processor and kind (read, write, prefetch, a read spanning two
// L1 lines), then the address. It returns every access's latency.
func (g equivGeometry) run(hs []*Hierarchy, ops []byte) []int64 {
	var lats []int64
	for k := 0; k+2 < len(ops); k += 3 {
		h := hs[int(ops[k]&0x3f)%len(hs)]
		addr := memsim.Addr((int(ops[k+1])<<8|int(ops[k+2]))*8%g.space) &^ 7
		switch ops[k] >> 6 {
		case 0:
			lats = append(lats, h.Access(addr, 8, false).Cycles)
		case 1:
			lats = append(lats, h.Access(addr, 8, true).Cycles)
		case 2:
			if h.PrefetchLine(addr) {
				lats = append(lats, 1)
			} else {
				lats = append(lats, 0)
			}
		default:
			lats = append(lats, h.Access(addr, g.l1.LineSize, false).Cycles)
		}
	}
	return lats
}

// permuted returns ps with every set's lines moved to other ways at
// random and every level's ticks renumbered by a monotone map: the same
// state as far as any access can tell.
func permuted(ps *PackedState, rng *rand.Rand) *PackedState {
	out := *ps
	out.l1, out.l2 = permuteCache(ps.l1, rng), permuteCache(ps.l2, rng)
	if ps.tlb != nil {
		out.tlb = slices.Clone(ps.tlb)
		for s := 0; s < len(out.tlb); s += ps.tlbAssoc {
			set := out.tlb[s : s+ps.tlbAssoc]
			rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
		}
		ticks := []uint64{ps.tlbTick}
		for _, e := range out.tlb {
			if e.valid {
				ticks = append(ticks, e.lru)
			}
		}
		renumber := monotone(ticks, rng)
		for i := range out.tlb {
			if out.tlb[i].valid {
				out.tlb[i].lru = renumber(out.tlb[i].lru)
			}
		}
		out.tlbTick = renumber(ps.tlbTick)
	}
	return &out
}

func permuteCache(p packedCache, rng *rand.Rand) packedCache {
	ticks := []uint64{p.tick}
	for _, ln := range p.lines {
		ticks = append(ticks, ln.lru)
	}
	renumber := monotone(ticks, rng)
	sets := p.slots / p.assoc
	ways := make([][]line, sets)
	for k, i := range p.idx {
		ways[int(i)/p.assoc] = append(ways[int(i)/p.assoc], p.lines[k])
	}
	out := packedCache{slots: p.slots, assoc: p.assoc, tick: renumber(p.tick)}
	for s, lines := range ways {
		slots := rng.Perm(p.assoc)[:len(lines)]
		slices.Sort(slots)
		rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
		for k, w := range slots {
			out.idx = append(out.idx, int32(s*p.assoc+w))
			out.lines = append(out.lines, line{key: lines[k].key, lru: renumber(lines[k].lru)})
		}
	}
	return out
}

// monotone returns a strictly increasing map over ticks, with random
// gaps, as a different history of the same LRU order would number them.
func monotone(ticks []uint64, rng *rand.Rand) func(uint64) uint64 {
	slices.Sort(ticks)
	sorted := slices.Compact(ticks)
	to := make(map[uint64]uint64, len(sorted))
	next := uint64(rng.Intn(5))
	for _, t := range sorted {
		to[t] = next
		next += 1 + uint64(rng.Intn(3))
	}
	return func(t uint64) uint64 { return to[t] }
}

// clonePacked deep-copies a capture so that a test may corrupt it.
func clonePacked(ps *PackedState) *PackedState {
	out := *ps
	for _, c := range []*packedCache{&out.l1, &out.l2} {
		c.idx, c.lines = slices.Clone(c.idx), slices.Clone(c.lines)
	}
	out.tlb, out.victims = slices.Clone(ps.tlb), slices.Clone(ps.victims)
	return &out
}

// sharedSet returns the positions in p.lines of two lines of one set, or
// false when no set holds two.
func sharedSet(p *packedCache) (int, int, bool) {
	for k := 1; k < len(p.idx); k++ {
		if p.idx[k]/int32(p.assoc) == p.idx[k-1]/int32(p.assoc) {
			return k - 1, k, true
		}
	}
	return 0, 0, false
}

// FuzzCaptureEquivalence checks PackedState.Equivalent on small random
// geometries driven by random multi-processor streams. A capture whose
// ways are permuted and whose ticks are renumbered monotonically is
// equivalent to the original, and hierarchies loaded from the two give
// the same latencies, statistics and final contents for any further
// stream. A changed tag, state bit, LRU order, TLB page or victim entry,
// or a tick tie, is not equivalent.
func FuzzCaptureEquivalence(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		ops := make([]byte, 3*1500)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(seed, ops)
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		g := randomGeometry(rng)
		warm, more := ops[:len(ops)/2], ops[len(ops)/2:]

		src, _ := g.build()
		g.run(src, warm)
		caps := make([]*PackedState, g.procs)
		perms := make([]*PackedState, g.procs)
		for i, h := range src {
			ps, err := h.Pack()
			if err != nil {
				t.Fatal(err)
			}
			caps[i], perms[i] = ps, permuted(ps, rng)
			if !ps.Equivalent(perms[i]) || !perms[i].Equivalent(ps) {
				t.Fatalf("p%d: permuted capture not equivalent (%+v)", i, g)
			}
		}

		a, busA := g.build()
		b, busB := g.build()
		for i := range a {
			if err := a[i].Unpack(caps[i]); err != nil {
				t.Fatal(err)
			}
			if err := b[i].Unpack(perms[i]); err != nil {
				t.Fatal(err)
			}
		}
		if la, lb := g.run(a, more), g.run(b, more); !slices.Equal(la, lb) {
			t.Fatalf("latencies differ after equivalent captures (%+v)", g)
		}
		if busA.fetches != busB.fetches || busA.supplies != busB.supplies || busA.writeback != busB.writeback {
			t.Fatalf("bus counters differ after equivalent captures")
		}
		for i := range a {
			if a[i].L1.Stats() != b[i].L1.Stats() || a[i].L2.Stats() != b[i].L2.Stats() ||
				a[i].TLB.Stats() != b[i].TLB.Stats() || a[i].VictimStats() != b[i].VictimStats() {
				t.Fatalf("p%d: statistics differ after equivalent captures", i)
			}
			pa, _ := a[i].Pack()
			pb, _ := b[i].Pack()
			if !pa.Equivalent(pb) {
				t.Fatalf("p%d: final contents differ after equivalent captures", i)
			}
		}

		// Corruptions that a later access can observe.
		for i, ps := range caps {
			refuse := func(what string, corrupt func(*PackedState) bool) {
				t.Helper()
				bad := clonePacked(ps)
				if corrupt(bad) && (ps.Equivalent(bad) || bad.Equivalent(ps)) {
					t.Errorf("p%d: capture with %s is equivalent", i, what)
				}
			}
			for _, level := range []func(*PackedState) *packedCache{
				func(p *PackedState) *packedCache { return &p.l1 },
				func(p *PackedState) *packedCache { return &p.l2 },
			} {
				refuse("a changed tag", func(p *PackedState) bool {
					c := level(p)
					if len(c.lines) == 0 {
						return false
					}
					c.lines[0].key += memsim.Addr(4 * g.space) // a tag no stream touches
					return true
				})
				refuse("a flipped state", func(p *PackedState) bool {
					c := level(p)
					if len(c.lines) == 0 {
						return false
					}
					c.lines[0].key ^= stateMask // Shared <-> Modified
					return true
				})
				refuse("a changed LRU order", func(p *PackedState) bool {
					c := level(p)
					j, k, ok := sharedSet(c)
					if ok {
						c.lines[j].lru, c.lines[k].lru = c.lines[k].lru, c.lines[j].lru
					}
					return ok
				})
				refuse("a tick tie", func(p *PackedState) bool {
					c := level(p)
					j, k, ok := sharedSet(c)
					if ok {
						c.lines[j].lru = c.lines[k].lru
					}
					return ok
				})
			}
			refuse("a changed TLB page", func(p *PackedState) bool {
				for k := range p.tlb {
					if p.tlb[k].valid {
						p.tlb[k].page += memsim.Addr(len(p.tlb)) << 20
						return true
					}
				}
				return false
			})
			refuse("a changed victim entry", func(p *PackedState) bool {
				for k := range p.victims {
					if p.victims[k].state != Invalid {
						p.victims[k].addr += memsim.Addr(g.space)
						return true
					}
				}
				return false
			})
		}
	})
}
