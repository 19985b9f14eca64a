package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/memsim"
)

func tinyConfig() Config {
	return Config{Name: "T", Size: 256, Assoc: 2, LineSize: 32, HitLatency: 3}
}

func TestConfigValidate(t *testing.T) {
	good := tinyConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Name: "sz", Size: 300, Assoc: 2, LineSize: 32},
		{Name: "as", Size: 256, Assoc: 3, LineSize: 32},
		{Name: "ln", Size: 256, Assoc: 2, LineSize: 33},
		{Name: "ln2", Size: 256, Assoc: 2, LineSize: 2}, // no room for the state bits
		{Name: "small", Size: 32, Assoc: 2, LineSize: 32},
		{Name: "lat", Size: 256, Assoc: 2, LineSize: 32, HitLatency: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q: expected validation error", c.Name)
		}
	}
}

func TestConfigGeometry(t *testing.T) {
	c := Config{Name: "L1", Size: 8 * 1024, Assoc: 2, LineSize: 32, HitLatency: 3}
	if got := c.NumSets(); got != 128 {
		t.Errorf("NumSets = %d, want 128", got)
	}
	if got := c.NumLines(); got != 256 {
		t.Errorf("NumLines = %d, want 256", got)
	}
	if got := c.WaySize(); got != 4096 {
		t.Errorf("WaySize = %d, want 4096", got)
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Error("State.String mismatch")
	}
}

func TestTouchMissThenFillThenHit(t *testing.T) {
	c := New(tinyConfig())
	addr := memsim.Addr(0x1000)
	if hit, _ := c.Touch(addr, false); hit {
		t.Fatal("empty cache should miss")
	}
	c.Fill(addr, Shared, false)
	if hit, st := c.Touch(addr, false); !hit || st != Shared {
		t.Fatalf("after fill: hit=%v st=%v, want hit Shared", hit, st)
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 || s.Fills != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New(tinyConfig()) // 4 sets, 2 ways, way size 128
	// Three lines mapping to the same set (stride = 4 sets * 32B = 128B).
	a, b, d := memsim.Addr(0x0), memsim.Addr(0x80), memsim.Addr(0x100)
	c.Fill(a, Shared, false)
	c.Fill(b, Shared, false)
	c.Touch(a, false) // a most recent; b is LRU
	v := c.Fill(d, Shared, false)
	if !v.Valid || v.Addr != b {
		t.Fatalf("victim = %+v, want eviction of %s", v, b)
	}
	if c.Probe(a) == Invalid || c.Probe(d) == Invalid {
		t.Error("a and d should be present")
	}
	if c.Probe(b) != Invalid {
		t.Error("b should have been evicted")
	}
}

func TestFillPrefersInvalidWay(t *testing.T) {
	c := New(tinyConfig())
	a := memsim.Addr(0x0)
	c.Fill(a, Shared, false)
	v := c.Fill(memsim.Addr(0x80), Shared, false) // same set, free way
	if v.Valid {
		t.Errorf("fill into non-full set evicted %+v", v)
	}
}

func TestDirtyEvictionCountsWriteback(t *testing.T) {
	c := New(tinyConfig())
	c.Fill(memsim.Addr(0x0), Modified, false)
	c.Fill(memsim.Addr(0x80), Shared, false)
	v := c.Fill(memsim.Addr(0x100), Shared, false)
	if !v.Valid || !v.Modified || v.Addr != 0x0 {
		t.Fatalf("victim = %+v, want modified eviction of 0x0", v)
	}
	if s := c.Stats(); s.Writebacks != 1 || s.Evictions != 1 {
		t.Errorf("stats = %+v, want 1 writeback, 1 eviction", s)
	}
}

func TestFillDuplicatePanics(t *testing.T) {
	// With hole, an empty way precedes the present line in its set, so
	// Fill's one scan must not stop at the first free way.
	for _, hole := range []bool{false, true} {
		c := New(tinyConfig())
		if hole {
			c.Fill(0x80, Shared, false) // way 0
			c.Fill(0x0, Shared, false)  // way 1
			c.Invalidate(0x80)
		} else {
			c.Fill(0x0, Shared, false)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("duplicate Fill (hole %v) should panic", hole)
				}
			}()
			c.Fill(0x0, Shared, false)
		}()
	}
}

func TestFillInvalidStatePanics(t *testing.T) {
	c := New(tinyConfig())
	defer func() {
		if recover() == nil {
			t.Error("Fill(Invalid) should panic")
		}
	}()
	c.Fill(0x0, Invalid, false)
}

func TestSetStateInvalidPanics(t *testing.T) {
	c := New(tinyConfig())
	c.Fill(0x0, Shared, false)
	defer func() {
		if recover() == nil {
			t.Error("SetState(Invalid) should panic")
		}
	}()
	c.SetState(0x0, Invalid)
}

// TestLineKeyEdgeCases covers the one-word line key where it is easiest
// to get wrong: a valid line at address 0 has the same tag bits as an
// empty slot, and state changes must rewrite the state bits only.
func TestLineKeyEdgeCases(t *testing.T) {
	for _, st := range []State{Shared, Modified} {
		c := New(tinyConfig())
		c.Fill(0x0, st, false)
		if got := c.Probe(0x0); got != st {
			t.Errorf("%v line at 0: Probe = %v", st, got)
		}
		if hit, got := c.Touch(0x0, false); !hit || got != st {
			t.Errorf("%v line at 0: Touch = %v, %v", st, hit, got)
		}
		if prior := c.Invalidate(0x0); prior != st {
			t.Errorf("%v line at 0: Invalidate prior = %v", st, prior)
		}
		for i := range c.sets {
			if c.sets[i].holds(0x0) || c.sets[i].key != 0 {
				t.Errorf("after Invalidate, slot %d has key %#x", i, uint64(c.sets[i].key))
			}
		}
		if hit, _ := c.Touch(0x0, false); hit {
			t.Errorf("%v line at 0: hit after Invalidate", st)
		}
		c.Fill(0x0, st, false) // absent again, so no duplicate-fill panic
	}

	c := New(tinyConfig())
	const a = memsim.Addr(0x1060)
	c.Fill(a, Modified, false)
	if prior := c.Downgrade(a); prior != Modified || c.Probe(a) != Shared {
		t.Errorf("Downgrade: prior %v, now %v", prior, c.Probe(a))
	}
	if !c.SetState(a, Modified) || c.Probe(a) != Modified {
		t.Errorf("SetState(Modified): now %v", c.Probe(a))
	}
	var tags []memsim.Addr
	c.ForEachLine(func(addr memsim.Addr, _ State) { tags = append(tags, addr) })
	if len(tags) != 1 || tags[0] != a {
		t.Errorf("after Downgrade and SetState, lines %v, want [%s]", tags, a)
	}

	// ForEachLine reports each line's own state.
	c = New(tinyConfig())
	want := map[memsim.Addr]State{0x0: Modified, 0x20: Shared, 0x80: Shared, 0xe0: Modified}
	for addr, st := range want {
		c.Fill(addr, st, false)
	}
	got := map[memsim.Addr]State{}
	c.ForEachLine(func(addr memsim.Addr, st State) { got[addr] = st })
	if len(got) != len(want) {
		t.Fatalf("ForEachLine = %v, want %v", got, want)
	}
	for addr, st := range want {
		if got[addr] != st {
			t.Errorf("ForEachLine: line %s is %v, want %v", addr, got[addr], st)
		}
	}
}

func TestSetStateAndUpgradeCount(t *testing.T) {
	c := New(tinyConfig())
	c.Fill(0x0, Shared, false)
	if !c.SetState(0x0, Modified) {
		t.Fatal("SetState on present line returned false")
	}
	if c.Probe(0x0) != Modified {
		t.Error("state not Modified after SetState")
	}
	if s := c.Stats(); s.Upgrades != 1 {
		t.Errorf("Upgrades = %d, want 1", s.Upgrades)
	}
	if c.SetState(0x999000, Modified) {
		t.Error("SetState on absent line returned true")
	}
}

func TestInvalidateAndDowngrade(t *testing.T) {
	c := New(tinyConfig())
	c.Fill(0x0, Modified, false)
	if prior := c.Downgrade(0x0); prior != Modified {
		t.Errorf("Downgrade prior = %v, want Modified", prior)
	}
	if c.Probe(0x0) != Shared {
		t.Error("line should be Shared after downgrade")
	}
	if prior := c.Downgrade(0x0); prior != Shared {
		t.Errorf("second Downgrade prior = %v, want Shared", prior)
	}
	if prior := c.Invalidate(0x0); prior != Shared {
		t.Errorf("Invalidate prior = %v, want Shared", prior)
	}
	if c.Probe(0x0) != Invalid {
		t.Error("line should be gone after invalidate")
	}
	if prior := c.Invalidate(0x0); prior != Invalid {
		t.Errorf("Invalidate absent prior = %v, want Invalid", prior)
	}
	s := c.Stats()
	if s.Invalidations != 1 || s.Downgrades != 1 {
		t.Errorf("stats = %+v, want 1 invalidation, 1 downgrade", s)
	}
}

func TestResetClearsEverything(t *testing.T) {
	c := New(tinyConfig())
	c.Fill(0x0, Modified, false)
	c.Touch(0x0, true)
	c.Reset()
	if c.ValidLines() != 0 {
		t.Error("lines remain after Reset")
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("stats after Reset = %+v", s)
	}
}

func TestForEachLineDeterministic(t *testing.T) {
	c := New(tinyConfig())
	c.Fill(0x0, Shared, false)
	c.Fill(0x20, Modified, false)
	var got []memsim.Addr
	c.ForEachLine(func(a memsim.Addr, _ State) { got = append(got, a) })
	if len(got) != 2 {
		t.Fatalf("ForEachLine visited %d lines, want 2", len(got))
	}
	if c.ValidLines() != 2 {
		t.Errorf("ValidLines = %d, want 2", c.ValidLines())
	}
}

func TestCacheCapacityNeverExceeded(t *testing.T) {
	cfg := tinyConfig()
	c := New(cfg)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		addr := memsim.Addr(rng.Intn(1 << 14)).Line(cfg.LineSize)
		if hit, _ := c.Touch(addr, rng.Intn(2) == 0); !hit {
			c.Fill(addr, Shared, false)
		}
		if c.ValidLines() > cfg.NumLines() {
			t.Fatalf("valid lines %d exceeds capacity %d", c.ValidLines(), cfg.NumLines())
		}
	}
}

// TestLRUPropertyHitAfterFewerDistinct: after touching line X, accessing
// fewer than Assoc other distinct lines in the same set must leave X
// resident (the defining LRU property).
func TestLRUPropertyHitAfterFewerDistinct(t *testing.T) {
	cfg := tinyConfig()
	f := func(seed int64) bool {
		c := New(cfg)
		rng := rand.New(rand.NewSource(seed))
		set := memsim.Addr(rng.Intn(cfg.NumSets()))
		lineOf := func(k int) memsim.Addr {
			return (set + memsim.Addr(k*cfg.NumSets())) * memsim.Addr(cfg.LineSize)
		}
		x := lineOf(0)
		c.Fill(x, Shared, false)
		// Touch Assoc-1 other lines in the same set.
		for k := 1; k < cfg.Assoc; k++ {
			a := lineOf(k)
			if hit, _ := c.Touch(a, false); !hit {
				c.Fill(a, Shared, false)
			}
		}
		hit, _ := c.Touch(x, false)
		return hit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestClassification(t *testing.T) {
	cfg := tinyConfig() // 8 lines total, 2-way, 4 sets
	c := New(cfg)
	c.EnableClassification()
	line := func(k int) memsim.Addr { return memsim.Addr(k * cfg.LineSize) }

	// First touch of anything: compulsory.
	c.Touch(line(0), false)
	c.Fill(line(0), Shared, false)
	if s := c.Stats(); s.Compulsory != 1 {
		t.Fatalf("Compulsory = %d, want 1", s.Compulsory)
	}

	// Conflict: three lines in one set (stride 4 lines), cache otherwise
	// empty, so a fully-associative cache would hold all three.
	c.Reset()
	c.EnableClassification()
	for _, k := range []int{0, 4, 8} { // same set in a 4-set cache
		c.Touch(line(k), false)
		c.Fill(line(k), Shared, false)
	}
	c.Touch(line(0), false) // evicted by set conflict, present in shadow
	if s := c.Stats(); s.Conflict != 1 {
		t.Fatalf("Conflict = %d, want 1 (stats %+v)", s.Conflict, s)
	}

	// Capacity: touch more distinct lines than the cache holds, then
	// re-touch the first; even a fully-associative cache would have
	// evicted it.
	c.Reset()
	c.EnableClassification()
	for k := 0; k < cfg.NumLines()+1; k++ {
		c.Touch(line(k), false)
		if c.Probe(line(k)) == Invalid {
			c.Fill(line(k), Shared, false)
		}
	}
	c.Touch(line(0), false)
	if s := c.Stats(); s.Capacity != 1 {
		t.Fatalf("Capacity = %d, want 1 (stats %+v)", s.Capacity, s)
	}
}

func TestClassificationPartition(t *testing.T) {
	// Property: compulsory + capacity + conflict == misses, always.
	cfg := tinyConfig()
	f := func(seed int64) bool {
		c := New(cfg)
		c.EnableClassification()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			addr := memsim.Addr(rng.Intn(1 << 12)).Line(cfg.LineSize)
			if hit, _ := c.Touch(addr, false); !hit {
				c.Fill(addr, Shared, false)
			}
		}
		s := c.Stats()
		return s.Compulsory+s.Capacity+s.Conflict == s.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Accesses: 10, Hits: 7, Misses: 3, Conflict: 1}
	b := Stats{Accesses: 5, Hits: 1, Misses: 4, Compulsory: 4}
	a.Add(b)
	if a.Accesses != 15 || a.Hits != 8 || a.Misses != 7 || a.Conflict != 1 || a.Compulsory != 4 {
		t.Errorf("Add result = %+v", a)
	}
}

func TestStatsMissRate(t *testing.T) {
	if (Stats{}).MissRate() != 0 {
		t.Error("empty MissRate should be 0")
	}
	s := Stats{Accesses: 4, Misses: 1}
	if got := s.MissRate(); got != 0.25 {
		t.Errorf("MissRate = %v, want 0.25", got)
	}
}
