package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/memsim"
)

// TestPackUnpackRoundTrip checks that a packed capture restores exactly
// the captured contents — every slot, tick, TLB and victim entry — into a
// hierarchy that has since run other accesses, with zeroed counters and
// every component marked untouched until its next access, and that it
// holds only valid lines.
func TestPackUnpackRoundTrip(t *testing.T) {
	build := func() *Hierarchy {
		h, _ := testHierarchy()
		h.TLB = NewTLB(TLBConfig{Entries: 16, Assoc: 2, PageSize: 1024, MissLatency: 20})
		h.EnableVictimBuffer(4, 1)
		h.FastPath = true
		return h
	}
	rng := rand.New(rand.NewSource(3))
	access := func(h *Hierarchy, n int) {
		for i := 0; i < n; i++ {
			h.Access(memsim.Addr(rng.Intn(64*1024))&^7, 8, rng.Intn(3) == 0)
		}
	}
	src := build()
	access(src, 3000)
	ps, err := src.Pack()
	if err != nil {
		t.Fatal(err)
	}
	valid := src.L1.ValidLines() + src.L2.ValidLines()
	if len(ps.l1.lines)+len(ps.l2.lines) != valid {
		t.Errorf("capture holds %d lines, hierarchy %d valid", len(ps.l1.lines)+len(ps.l2.lines), valid)
	}

	dst := build()
	access(dst, 500)
	if got := dst.UntouchedComponents(); len(got) != 0 {
		t.Errorf("hierarchy never loaded from a capture reports %v untouched", got)
	}
	if err := dst.Unpack(ps); err != nil {
		t.Fatal(err)
	}
	if got := dst.UntouchedComponents(); !reflect.DeepEqual(got, []string{"l1", "l2", "tlb", "victim"}) {
		t.Errorf("after unpack, untouched components %v, want all four", got)
	}
	if !reflect.DeepEqual(dst.L1.sets, src.L1.sets) || !reflect.DeepEqual(dst.L2.sets, src.L2.sets) ||
		dst.L1.tick != src.L1.tick || dst.L2.tick != src.L2.tick {
		t.Error("cache contents differ after unpack")
	}
	if !reflect.DeepEqual(dst.TLB.sets, src.TLB.sets) || dst.TLB.tick != src.TLB.tick {
		t.Error("TLB differs after unpack")
	}
	if !reflect.DeepEqual(dst.victims.entries, src.victims.entries) || dst.victims.tick != src.victims.tick {
		t.Error("victim buffer differs after unpack")
	}
	if dst.L1.Stats() != (Stats{}) || dst.L2.Stats() != (Stats{}) || dst.TLB.Stats() != (TLBStats{}) {
		t.Error("counters survive unpack")
	}
	// Both continue identically from the loaded state.
	seed := rng.Int63()
	rng = rand.New(rand.NewSource(seed))
	access(src, 2000)
	rng = rand.New(rand.NewSource(seed))
	access(dst, 2000)
	if !reflect.DeepEqual(dst.L1.sets, src.L1.sets) || !reflect.DeepEqual(dst.L2.sets, src.L2.sets) ||
		!reflect.DeepEqual(dst.victims.entries, src.victims.entries) {
		t.Error("hierarchies diverge after continuing from the capture")
	}
	if err := dst.CheckInclusion(); err != nil {
		t.Error(err)
	}
	if got := dst.UntouchedComponents(); len(got) != 0 {
		t.Errorf("after 2000 accesses, untouched components %v", got)
	}
	// Each packed line is its record plus an int32 slot index.
	if got := unsafe.Sizeof(line{}); got != 16 {
		t.Errorf("line record is %d bytes, want 16 (one key word and the LRU tick)", got)
	}
	wantBytes := int64(len(ps.l1.lines)+len(ps.l2.lines))*int64(unsafe.Sizeof(line{})+4) +
		16*int64(unsafe.Sizeof(tlbEntry{})) + 4*int64(unsafe.Sizeof(victimEntry{}))
	if got := ps.MemBytes(); got != wantBytes {
		t.Errorf("capture MemBytes = %d, want %d", got, wantBytes)
	}
}
