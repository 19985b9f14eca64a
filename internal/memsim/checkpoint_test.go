package memsim

import (
	"strings"
	"testing"
)

// layoutSpace allocates the fixed two-array layout the LoadState tests
// share; each call is a fresh, layout-identical space.
func layoutSpace() (*Space, *Array, *Array) {
	s := NewSpace()
	a := s.Alloc("a", 8, 8, 64)
	b := s.AllocAt("idx", 4, 4, 32, 256)
	return s, a, b
}

// TestLoadStateIsolated pins LoadState's copy-on-write contract: two
// spaces loading one checkpoint read its values, and a write in either
// reaches neither the checkpoint nor its sibling.
func TestLoadStateIsolated(t *testing.T) {
	src, sa, sb := layoutSpace()
	sa.Fill(func(i int) float64 { return float64(10 + i) })
	sb.Fill(func(i int) float64 { return float64(i) })
	ck := src.Checkpoint()

	s1, a1, b1 := layoutSpace()
	s2, a2, b2 := layoutSpace()
	for _, s := range []*Space{s1, s2} {
		if err := s.LoadState(ck); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range []*Array{a1, b1, a2, b2} {
		if !a.Shared() {
			t.Errorf("%s: loaded array not copy-on-write", a)
		}
	}
	if a1.Load(3) != 13 || b2.Load(2) != 2 {
		t.Fatalf("loaded values %v, %v; want 13, 2", a1.Load(3), b2.Load(2))
	}

	a1.Store(3, -1)
	b1.FillConst(7)
	if a1.Shared() || !a2.Shared() {
		t.Error("a write changed the wrong array's sharing")
	}
	if a2.Load(3) != 13 || b2.Load(1) != 1 {
		t.Errorf("sibling sees the write: a[3]=%v idx[1]=%v", a2.Load(3), b2.Load(1))
	}
	if sa.Load(3) != 13 || sb.Load(1) != 1 {
		t.Errorf("checkpoint source sees the write: a[3]=%v idx[1]=%v", sa.Load(3), sb.Load(1))
	}

	// A third space loads the checkpoint's values, not the writers'.
	s3, a3, _ := layoutSpace()
	if err := s3.LoadState(ck); err != nil {
		t.Fatal(err)
	}
	if a3.Load(3) != 13 {
		t.Errorf("later load sees a write: a[3]=%v", a3.Load(3))
	}
	if s3.Size() != src.Size() {
		t.Errorf("cursor %d, checkpoint's %d", s3.Size(), src.Size())
	}
}

// TestLoadStateRejectsLayoutMismatch pins the layout check: a space that
// differs from the checkpointed one in array count, name, base, length
// or element size is refused and left untouched.
func TestLoadStateRejectsLayoutMismatch(t *testing.T) {
	src, sa, _ := layoutSpace()
	sa.FillConst(5)
	ck := src.Checkpoint()

	cases := map[string]func() *Space{
		"count": func() *Space {
			s := NewSpace()
			s.Alloc("a", 8, 8, 64)
			return s
		},
		"name": func() *Space {
			s := NewSpace()
			s.Alloc("b", 8, 8, 64)
			s.AllocAt("idx", 4, 4, 32, 256)
			return s
		},
		"base": func() *Space {
			s := NewSpace()
			s.Pad(64)
			s.Alloc("a", 8, 8, 64)
			s.AllocAt("idx", 4, 4, 32, 256)
			return s
		},
		"length": func() *Space {
			s := NewSpace()
			s.Alloc("a", 8, 8, 64)
			s.AllocAt("idx", 5, 4, 32, 256)
			return s
		},
		"elem": func() *Space {
			s := NewSpace()
			s.Alloc("a", 8, 4, 64)
			s.AllocAt("idx", 4, 4, 32, 256)
			return s
		},
	}
	for name, build := range cases {
		s := build()
		err := s.LoadState(ck)
		if err == nil || !strings.Contains(err.Error(), "LoadState") {
			t.Errorf("%s mismatch: LoadState error = %v", name, err)
			continue
		}
		for _, a := range s.Arrays() {
			if a.Shared() || a.Load(0) != 0 {
				t.Errorf("%s mismatch: rejected load changed %s", name, a)
			}
		}
	}
}
