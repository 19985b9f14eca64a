package machine

import (
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/memsim"
)

// TestOverlapCostMonotonicInWindow: widening the overlap window never
// increases the cost, and serialization (window 1) equals the plain sum.
func TestOverlapCostMonotonicInWindow(t *testing.T) {
	f := func(raw []uint8) bool {
		var results []cache.Result
		var sum int64
		for _, r := range raw {
			pen := int64(r) % 70
			cycles := pen + 3
			results = append(results, cache.Result{Cycles: cycles, MissPenalty: pen})
			sum += cycles
		}
		if overlapCost(results, 1) != sum {
			return false
		}
		prev := overlapCost(results, 1)
		for w := 2; w <= 8; w++ {
			cur := overlapCost(results, w)
			if cur > prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestOverlapCostLowerBound: the cost never drops below the serial part
// plus the largest single penalty.
func TestOverlapCostLowerBound(t *testing.T) {
	results := []cache.Result{
		{Cycles: 68, MissPenalty: 65},
		{Cycles: 10, MissPenalty: 7},
		{Cycles: 3, MissPenalty: 0},
	}
	got := overlapCost(results, 100)
	want := int64(3+3+3) + 65 // serial parts + max penalty
	if got != want {
		t.Errorf("cost = %d, want %d", got, want)
	}
}

func TestDistributeLinesMultipleRanges(t *testing.T) {
	m := MustNew(PentiumPro(2))
	m.DistributeLines([]AddrRange{
		{Base: 0x100000, Bytes: 1024},
		{Base: 0x200000, Bytes: 2048},
	})
	resident := 0
	for _, r := range []AddrRange{{0x100000, 1024}, {0x200000, 2048}} {
		for off := 0; off < r.Bytes; off += 32 {
			addr := r.Base + memsim.Addr(off)
			for p := 0; p < m.Procs(); p++ {
				if m.Proc(p).Hierarchy().Probe(addr) == cache.Modified {
					resident++
				}
			}
		}
	}
	if resident != (1024+2048)/32 {
		t.Errorf("resident lines = %d, want %d", resident, (1024+2048)/32)
	}
}

func TestStoreBufferedConfig(t *testing.T) {
	for _, cfg := range Presets() {
		if !cfg.StoreBuffered {
			t.Errorf("%s: store buffering should be on (both machines have write buffers)", cfg.Name)
		}
		if cfg.MaxOutstanding != 1 {
			t.Errorf("%s: presets model demand misses serially; got %d", cfg.Name, cfg.MaxOutstanding)
		}
	}
}

func TestWriteLatencyWithStoreBuffer(t *testing.T) {
	cfg := PentiumPro(1)
	m := MustNew(cfg)
	// Warm the page translation so only the store path is measured.
	m.Proc(0).Access(0x9100, 8, false)
	// Cold write: full coherence work happens but only L1 issue latency is
	// charged.
	r := m.Proc(0).Access(0x9000, 8, true)
	if r.Cycles != cfg.L1.HitLatency {
		t.Errorf("buffered store cost = %d, want %d", r.Cycles, cfg.L1.HitLatency)
	}
	if r.Level != cache.LevelMem {
		t.Errorf("store level = %v, want mem (allocation still happened)", r.Level)
	}
	if m.Proc(0).Hierarchy().Probe(0x9000) != cache.Modified {
		t.Error("store did not install the line Modified")
	}
	if m.L1Stats().WriteMisses != 1 {
		t.Errorf("write miss not counted: %+v", m.L1Stats())
	}
}
