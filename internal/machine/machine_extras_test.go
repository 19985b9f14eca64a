package machine

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/memsim"
)

func TestEnableClassificationAggregates(t *testing.T) {
	m := MustNew(PentiumPro(2))
	m.EnableClassification()
	// Conflict pattern on proc 0: three lines, one L1 set (way size 4KB).
	for i := 0; i < 20; i++ {
		for _, a := range []memsim.Addr{0x0, 0x1000, 0x2000} {
			m.Proc(0).Access(a, 8, false)
		}
	}
	s := m.L1Stats()
	if s.Compulsory+s.Capacity+s.Conflict != s.Misses {
		t.Errorf("classification partition broken: %+v", s)
	}
	if s.Conflict == 0 {
		t.Error("conflict pattern produced no conflict misses")
	}
}

func TestTLBStatsAggregate(t *testing.T) {
	m := MustNew(R10000(2))
	m.Proc(0).Access(0x10000, 8, false)
	m.Proc(1).Access(0x90000, 8, false)
	s := m.TLBStats()
	if s.Accesses != 2 || s.Misses != 2 {
		t.Errorf("TLB stats = %+v", s)
	}
	// Machines without a TLB report zeros.
	cfg := PentiumPro(1)
	cfg.TLB = cache.TLBConfig{}
	m2 := MustNew(cfg)
	m2.Proc(0).Access(0x0, 8, false)
	if m2.TLBStats() != (cache.TLBStats{}) {
		t.Error("TLB-less machine reported stats")
	}
}

func TestVictimStatsAggregate(t *testing.T) {
	cfg := PentiumPro(1).WithVictim(4, 2)
	m := MustNew(cfg)
	// Thrash one L1 set so evictions land in the buffer and return.
	for i := 0; i < 10; i++ {
		for _, a := range []memsim.Addr{0x0, 0x1000, 0x2000} {
			m.Proc(0).Access(a, 8, false)
		}
	}
	s := m.VictimStats()
	if s.Inserts == 0 || s.Hits == 0 {
		t.Errorf("victim stats = %+v", s)
	}
	if MustNew(PentiumPro(1)).VictimStats() != (cache.VictimStats{}) {
		t.Error("victimless machine reported stats")
	}
}

func TestObserverSeesAccesses(t *testing.T) {
	m := MustNew(PentiumPro(1))
	var got []memsim.Addr
	m.Proc(0).SetObserver(func(addr memsim.Addr, size int, write bool) {
		got = append(got, addr)
	})
	m.Proc(0).Access(0x100, 8, false)
	m.Proc(0).Access(0x200, 8, true)
	m.Proc(0).SetObserver(nil)
	m.Proc(0).Access(0x300, 8, false)
	if len(got) != 2 || got[0] != 0x100 || got[1] != 0x200 {
		t.Errorf("observed = %v", got)
	}
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid config")
		}
	}()
	MustNew(PentiumPro(0))
}

func TestValidateRejectsBadTLB(t *testing.T) {
	cfg := PentiumPro(2)
	cfg.TLB = cache.TLBConfig{Entries: 7, Assoc: 1, PageSize: 4096}
	if err := cfg.Validate(); err == nil {
		t.Error("bad TLB config accepted")
	}
}

// TestCaptureHoldsValidLines pins Capture.MemBytes after a prior-parallel
// distribution: every valid line costs its 24-byte record plus a 4-byte
// slot index, and loading the capture reproduces the occupancy.
func TestCaptureHoldsValidLines(t *testing.T) {
	cfg := PentiumPro(4)
	m := MustNew(cfg)
	m.DistributeLines([]AddrRange{{Base: 0x100000, Bytes: 300 << 10}})
	c, err := m.Capture()
	if err != nil {
		t.Fatal(err)
	}
	var valid int64
	for p := 0; p < m.Procs(); p++ {
		valid += int64(m.Proc(p).Hierarchy().L1.ValidLines() + m.Proc(p).Hierarchy().L2.ValidLines())
	}
	want := valid*28 + int64(cfg.Procs*cfg.TLB.Entries)*24
	if got := c.MemBytes(); got != want {
		t.Errorf("Capture.MemBytes = %d, want %d", got, want)
	}
	fresh := MustNew(cfg)
	if err := fresh.LoadCapture(c); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < cfg.Procs; p++ {
		a, b := m.Proc(p).Hierarchy(), fresh.Proc(p).Hierarchy()
		if a.L1.ValidLines() != b.L1.ValidLines() || a.L2.ValidLines() != b.L2.ValidLines() {
			t.Errorf("p%d occupancy differs after load", p)
		}
	}
}
