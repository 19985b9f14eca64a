package machine

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/memsim"
)

func TestPresetsValidate(t *testing.T) {
	for _, cfg := range Presets() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestTable1Parameters(t *testing.T) {
	pp := PentiumPro(4)
	if pp.L1.Size != 8*1024 || pp.L1.Assoc != 2 || pp.L1.LineSize != 32 || pp.L1.HitLatency != 3 {
		t.Errorf("PentiumPro L1 = %+v", pp.L1)
	}
	if pp.L2.Size != 512*1024 || pp.L2.Assoc != 4 || pp.L2.LineSize != 32 || pp.L2.HitLatency != 7 {
		t.Errorf("PentiumPro L2 = %+v", pp.L2)
	}
	if pp.MemLatency != 58 || pp.TransferCycles != 120 || pp.CompilerPrefetch.Enabled {
		t.Errorf("PentiumPro mem/transfer/prefetch = %d/%d/%v",
			pp.MemLatency, pp.TransferCycles, pp.CompilerPrefetch.Enabled)
	}

	r10k := R10000(8)
	if r10k.L1.Size != 32*1024 || r10k.L1.Assoc != 2 || r10k.L1.LineSize != 32 || r10k.L1.HitLatency != 3 {
		t.Errorf("R10000 L1 = %+v", r10k.L1)
	}
	if r10k.L2.Size != 2*1024*1024 || r10k.L2.Assoc != 2 || r10k.L2.LineSize != 128 || r10k.L2.HitLatency != 6 {
		t.Errorf("R10000 L2 = %+v", r10k.L2)
	}
	if r10k.MemLatency < 100 || r10k.MemLatency > 200 {
		t.Errorf("R10000 mem latency %d outside paper's 100-200 range", r10k.MemLatency)
	}
	if r10k.TransferCycles != 500 || !r10k.CompilerPrefetch.Enabled {
		t.Errorf("R10000 transfer/prefetch = %d/%v", r10k.TransferCycles, r10k.CompilerPrefetch.Enabled)
	}
}

func TestConfigValidateErrors(t *testing.T) {
	bad := []Config{
		func() Config { c := PentiumPro(0); return c }(),
		func() Config { c := PentiumPro(4); c.L1.Size = 100; return c }(),
		func() Config { c := PentiumPro(4); c.MemLatency = 0; return c }(),
		func() Config { c := PentiumPro(4); c.MaxOutstanding = 0; return c }(),
		func() Config { c := PentiumPro(4); c.TransferCycles = -1; return c }(),
		func() Config {
			c := R10000(8)
			c.CompilerPrefetch.Distance = 0
			return c
		}(),
		func() Config { c := R10000(8); c.L1.LineSize = 64; c.L2.LineSize = 96; return c }(),
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d passed validation", i)
		}
	}
}

func TestWithProcs(t *testing.T) {
	cfg := PentiumPro(4).WithProcs(2)
	if cfg.Procs != 2 {
		t.Errorf("Procs = %d, want 2", cfg.Procs)
	}
	if PentiumPro(4).Procs != 4 {
		t.Error("WithProcs mutated the original")
	}
}

func TestNewMachine(t *testing.T) {
	m := MustNew(PentiumPro(4))
	if m.Procs() != 4 {
		t.Fatalf("Procs = %d, want 4", m.Procs())
	}
	for i := 0; i < 4; i++ {
		if m.Proc(i).ID() != i {
			t.Errorf("Proc(%d).ID = %d", i, m.Proc(i).ID())
		}
		if m.Proc(i).Machine() != m {
			t.Errorf("Proc(%d).Machine mismatch", i)
		}
	}
	if _, err := New(PentiumPro(0)); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestMachineAccessAndCoherence(t *testing.T) {
	m := MustNew(PentiumPro(2))
	p0, p1 := m.Proc(0), m.Proc(1)
	addr := memsim.Addr(0x10000)
	p0.Access(addr, 8, true)
	if p0.Hierarchy().Probe(addr) != cache.Modified {
		t.Error("p0 should hold M")
	}
	p1.Access(addr, 8, false)
	if p0.Hierarchy().Probe(addr) != cache.Shared {
		t.Error("p0 should be downgraded to S after p1's read")
	}
	if m.Bus().Stats().CacheToCache != 1 {
		t.Errorf("CacheToCache = %d, want 1", m.Bus().Stats().CacheToCache)
	}
}

func TestAggregateStats(t *testing.T) {
	m := MustNew(PentiumPro(2))
	m.Proc(0).Access(0x0, 8, false)
	m.Proc(1).Access(0x10000, 8, false)
	if got := m.L1Stats().Accesses; got != 2 {
		t.Errorf("aggregate L1 accesses = %d, want 2", got)
	}
	if got := m.L2Stats().Misses; got != 2 {
		t.Errorf("aggregate L2 misses = %d, want 2", got)
	}
}

func TestResetCachesAndStats(t *testing.T) {
	m := MustNew(PentiumPro(2))
	m.Proc(0).Access(0x0, 8, true)
	m.ResetStats()
	if m.L1Stats().Accesses != 0 {
		t.Error("stats survive ResetStats")
	}
	if m.Proc(0).Hierarchy().Probe(0x0) == cache.Invalid {
		t.Error("ResetStats must keep cache contents")
	}
	m.ResetCaches()
	if m.Proc(0).Hierarchy().Probe(0x0) != cache.Invalid {
		t.Error("ResetCaches must clear contents")
	}
}

func TestDistributeLines(t *testing.T) {
	m := MustNew(PentiumPro(4))
	const bytes = 4 * 1024
	m.DistributeLines([]AddrRange{{Base: 0x100000, Bytes: bytes}})
	// Every line must be Modified in exactly one cache, round-robin.
	lines := bytes / m.Config().L2.LineSize
	found := 0
	for i := 0; i < lines; i++ {
		addr := memsim.Addr(0x100000 + i*m.Config().L2.LineSize)
		owners := 0
		for p := 0; p < m.Procs(); p++ {
			if m.Proc(p).Hierarchy().Probe(addr) == cache.Modified {
				owners++
			}
		}
		if owners > 1 {
			t.Fatalf("line %s owned by %d processors", addr, owners)
		}
		found += owners
	}
	if found != lines {
		t.Errorf("distributed lines resident = %d, want %d", found, lines)
	}
	// Stats must have been cleared by DistributeLines.
	if m.L1Stats().Accesses != 0 {
		t.Error("DistributeLines left warm-up traffic in the stats")
	}
}

func TestProcessorPrefetch(t *testing.T) {
	m := MustNew(PentiumPro(1))
	if !m.Proc(0).Prefetch(0x4000) {
		t.Error("first prefetch should fetch")
	}
	r := m.Proc(0).Access(0x4000, 8, false)
	if r.Level != cache.LevelL1 {
		t.Errorf("level after prefetch = %v, want L1", r.Level)
	}
}

// overlapCost sums results into an IterCost and returns its cost.
func overlapCost(results []cache.Result, maxOutstanding int) int64 {
	var c IterCost
	for _, r := range results {
		c.Add(r)
	}
	return c.Cost(maxOutstanding)
}

func TestOverlapCost(t *testing.T) {
	res := func(cycles, penalty int64) cache.Result {
		return cache.Result{Cycles: cycles, MissPenalty: penalty}
	}
	cases := []struct {
		name string
		in   []cache.Result
		max  int
		want int64
	}{
		{"all hits", []cache.Result{res(3, 0), res(3, 0)}, 4, 6},
		{"one miss", []cache.Result{res(68, 65)}, 4, 68},
		{"two misses overlap fully", []cache.Result{res(68, 65), res(68, 65)}, 4, 3 + 3 + 65},
		{"serialized when max=1", []cache.Result{res(68, 65), res(68, 65)}, 1, 136},
		{"five misses exceed window", []cache.Result{res(68, 65), res(68, 65), res(68, 65), res(68, 65), res(68, 65)}, 4,
			5*3 + (5*65+3)/4},
		{"empty", nil, 4, 0},
	}
	for _, c := range cases {
		if got := overlapCost(c.in, c.max); got != c.want {
			t.Errorf("%s: cost = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestOverlapCostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("IterCost.Cost with maxOutstanding 0 should panic")
		}
	}()
	var c IterCost
	c.Cost(0)
}

func TestProcessorString(t *testing.T) {
	m := MustNew(PentiumPro(2))
	if got := m.Proc(1).String(); got != "PentiumPro.cpu1" {
		t.Errorf("String = %q", got)
	}
}
