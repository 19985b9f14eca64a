package loopspec

import (
	"strings"
	"testing"

	"repro/internal/cascade"
	"repro/internal/machine"
)

// scatterSpec is the paper's synthetic loop as JSON.
const scatterSpec = `{
	"name": "scatter-add",
	"iters": 4096,
	"seed": 7,
	"arrays": [
		{"name": "X",  "len": 4096, "elem": 8, "init": "i % 97"},
		{"name": "IJ", "len": 4096, "elem": 4, "init": "randint(4096)"},
		{"name": "A",  "len": 4096, "elem": 8, "init": "i % 13",
		 "congruence": {"offset": 0, "modulus": 4096}},
		{"name": "B",  "len": 4096, "elem": 8, "init": "i % 7",
		 "congruence": {"offset": 0, "modulus": 4096}}
	],
	"reads": [
		{"array": "A", "index": {}},
		{"array": "B", "index": {}},
		{"array": "X", "index": {"table": "IJ"}, "readwrite": true}
	],
	"writes": [
		{"array": "X", "index": {"table": "IJ"}}
	],
	"pre":   {"exprs": ["r0 + 2*r1"], "cycles": 2},
	"final": {"exprs": ["rw0 + p0"], "cycles": 1},
	"no_compiler_prefetch": true
}`

func TestParseAndBuild(t *testing.T) {
	s, err := Parse([]byte(scatterSpec))
	if err != nil {
		t.Fatal(err)
	}
	space, l, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name != "scatter-add" || l.Iters != 4096 {
		t.Errorf("loop = %s", l)
	}
	if len(l.RO) != 2 || len(l.RW) != 1 || len(l.Writes) != 1 {
		t.Errorf("ref split: %d ro, %d rw, %d writes", len(l.RO), len(l.RW), len(l.Writes))
	}
	if !l.NoCompilerPrefetch {
		t.Error("no_compiler_prefetch not propagated")
	}
	if l.PreCycles != 2 || l.FinalCycles != 1 {
		t.Errorf("cycles = %d/%d", l.PreCycles, l.FinalCycles)
	}
	if len(space.Arrays()) != 4 {
		t.Errorf("arrays = %d", len(space.Arrays()))
	}
	// Congruence honored.
	for _, a := range space.Arrays() {
		if a.Name() == "A" || a.Name() == "B" {
			if int(a.Base())%4096 != 0 {
				t.Errorf("%s congruence violated: %s", a.Name(), a.Base())
			}
		}
	}
}

func TestBuiltLoopValueSemantics(t *testing.T) {
	s, err := Parse([]byte(scatterSpec))
	if err != nil {
		t.Fatal(err)
	}
	_, l, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	// Capture inputs before execution mutates X.
	arrays := map[string][]float64{}
	for _, a := range l.Arrays() {
		arrays[a.Name()] = a.Snapshot()
	}
	m := machine.MustNew(machine.PentiumPro(1))
	cascade.RunSequential(m, l, false)

	// Independent reference computation.
	want := append([]float64(nil), arrays["X"]...)
	for i := 0; i < l.Iters; i++ {
		j := int(arrays["IJ"][i])
		want[j] += arrays["A"][i] + 2*arrays["B"][i]
	}
	x := l.Writes[0].Array
	for j := range want {
		if x.Load(j) != want[j] {
			t.Fatalf("X[%d] = %v, want %v", j, x.Load(j), want[j])
		}
	}
}

func TestSpecCascadedEquivalence(t *testing.T) {
	run := func(helper cascade.Helper, useCascade bool) []float64 {
		s, err := Parse([]byte(scatterSpec))
		if err != nil {
			t.Fatal(err)
		}
		space, l, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		m := machine.MustNew(machine.PentiumPro(4))
		if useCascade {
			opts := cascade.DefaultOptions(helper, space)
			opts.ChunkBytes = 2048
			cascade.MustRun(m, l, opts)
		} else {
			cascade.RunSequential(m, l, true)
		}
		return l.Writes[0].Array.Snapshot()
	}
	want := run(0, false)
	for _, h := range []cascade.Helper{cascade.HelperPrefetch, cascade.HelperRestructure} {
		got := run(h, true)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%v: X[%d] = %v, want %v", h, j, got[j], want[j])
			}
		}
	}
}

func TestSpecWithoutPre(t *testing.T) {
	src := `{
		"name": "copy",
		"iters": 64,
		"arrays": [
			{"name": "A", "len": 64, "init": "3*i"},
			{"name": "C", "len": 64}
		],
		"reads":  [{"array": "A", "index": {}}],
		"writes": [{"array": "C", "index": {}}],
		"final":  {"exprs": ["r0 + 1"], "cycles": 1}
	}`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	_, l, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.MustNew(machine.PentiumPro(1))
	cascade.RunSequential(m, l, false)
	c := l.Writes[0].Array
	for i := 0; i < 64; i++ {
		if c.Load(i) != float64(3*i+1) {
			t.Fatalf("C[%d] = %v", i, c.Load(i))
		}
	}
}

func TestSpecStrideAndOffset(t *testing.T) {
	src := `{
		"name": "strided",
		"iters": 32,
		"arrays": [
			{"name": "A", "len": 70, "init": "i"},
			{"name": "C", "len": 32}
		],
		"reads":  [{"array": "A", "index": {"scale": 2, "offset": 1}}],
		"writes": [{"array": "C", "index": {}}],
		"final":  {"exprs": ["r0"]}
	}`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	_, l, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	cascade.RunSequential(machine.MustNew(machine.PentiumPro(1)), l, false)
	c := l.Writes[0].Array
	for i := 0; i < 32; i++ {
		if c.Load(i) != float64(2*i+1) {
			t.Fatalf("C[%d] = %v, want %d", i, c.Load(i), 2*i+1)
		}
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"name": "x", "bogus": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Parse([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestBuildErrors(t *testing.T) {
	base := func(mutate func(*Spec)) error {
		s, err := Parse([]byte(scatterSpec))
		if err != nil {
			t.Fatal(err)
		}
		mutate(s)
		_, _, err = Build(s)
		return err
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"no name", func(s *Spec) { s.Name = "" }, "no name"},
		{"no iters", func(s *Spec) { s.Iters = 0 }, "iters"},
		{"no arrays", func(s *Spec) { s.Arrays = nil }, "no arrays"},
		{"no writes", func(s *Spec) { s.Writes = nil }, "no writes"},
		{"final arity", func(s *Spec) { s.Final.Exprs = nil }, "final has 0 expressions"},
		{"dup array", func(s *Spec) { s.Arrays = append(s.Arrays, s.Arrays[0]) }, "duplicate array"},
		{"bad read array", func(s *Spec) { s.Reads[0].Array = "NOPE" }, "unknown array"},
		{"bad table", func(s *Spec) { s.Reads[2].Index.Table = "NOPE" }, "unknown index table"},
		{"bad init", func(s *Spec) { s.Arrays[0].Init = "qq+" }, "unknown variable"},
		{"bad pre expr", func(s *Spec) { s.Pre.Exprs = []string{"nope"} }, "unknown variable"},
		{"empty pre", func(s *Spec) { s.Pre.Exprs = nil }, "no expressions"},
		{"bad final expr", func(s *Spec) { s.Final.Exprs = []string{"zz"} }, "unknown variable"},
		{"zero-len array", func(s *Spec) { s.Arrays[0].Len = 0 }, "len 0"},
		{"iters beyond arrays", func(s *Spec) { s.Iters = 100000 }, "out of"},
		{"elem not pow2", func(s *Spec) { s.Arrays[0].Elem = 3 }, "elem 3"},
		{"align below elem", func(s *Spec) { s.Arrays[0].Align = 4 }, "align 4"},
		{"zero modulus", func(s *Spec) { s.Arrays[2].Congruence.Modulus = 0 }, "congruence 0 mod 0"},
		{"offset past modulus", func(s *Spec) { s.Arrays[2].Congruence.Offset = 4096 }, "congruence 4096 mod 4096"},
		{"fractional table", func(s *Spec) { s.Arrays[1].Init = "i / 2" }, "not an integer"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := base(c.mutate)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %v, want containing %q", err, c.want)
			}
		})
	}
}

func TestVarNames(t *testing.T) {
	got := varNames("r", 3)
	if len(got) != 3 || got[0] != "r0" || got[2] != "r2" {
		t.Errorf("varNames = %v", got)
	}
	if len(varNames("p", 0)) != 0 {
		t.Error("varNames(0) should be empty")
	}
}
