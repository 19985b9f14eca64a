package loopspec

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/loopir"
	"repro/internal/memsim"
)

// Spec is the JSON description of one loop and its arrays.
type Spec struct {
	Name  string `json:"name"`
	Iters int    `json:"iters"`
	// Seed feeds rand()/randint() in initializer expressions.
	Seed uint64 `json:"seed,omitempty"`

	Arrays []ArraySpec `json:"arrays"`
	Reads  []RefSpec   `json:"reads"`
	Writes []RefSpec   `json:"writes"`

	// Pre is the optional read-only computation stage; its expressions
	// see i and r0..rK (the read-only operands, in Reads order).
	Pre *StageSpec `json:"pre,omitempty"`
	// Final produces one value per write reference; its expressions see
	// i, the pre results p0.. (or the raw read-only operands r0.. when
	// there is no pre stage), and the read-write operands rw0...
	Final StageSpec `json:"final"`

	// NoCompilerPrefetch marks the loop as unanalyzable by the modelled
	// compiler prefetcher (see loopir.Loop.NoCompilerPrefetch).
	NoCompilerPrefetch bool `json:"no_compiler_prefetch,omitempty"`
}

// ArraySpec describes one simulated array.
type ArraySpec struct {
	Name string `json:"name"`
	Len  int    `json:"len"`
	// Elem is the element size in bytes (default 8).
	Elem int `json:"elem,omitempty"`
	// Init is an expression over i and n giving each element's initial
	// value (default 0). Index arrays must initialize to integral values.
	Init string `json:"init,omitempty"`
	// Congruence pins the array's base address to Offset modulo Modulus,
	// the tool for engineering cache-set conflicts.
	Congruence *CongruenceSpec `json:"congruence,omitempty"`
	// Align sets base alignment in bytes (default: element size). Ignored
	// when Congruence is set.
	Align int `json:"align,omitempty"`
}

// CongruenceSpec is a base-address congruence constraint.
type CongruenceSpec struct {
	Offset  int `json:"offset"`
	Modulus int `json:"modulus"`
}

// IndexSpec selects an element per iteration: Scale*i+Offset, indirected
// through Table when set (Table[Scale*i+Offset]).
type IndexSpec struct {
	Scale  *int   `json:"scale,omitempty"` // default 1
	Offset int    `json:"offset,omitempty"`
	Table  string `json:"table,omitempty"`
}

// RefSpec is one memory reference.
type RefSpec struct {
	Array string    `json:"array"`
	Index IndexSpec `json:"index"`
	// ReadWrite marks a read of data the loop also writes (ineligible for
	// restructuring). Only meaningful in Reads.
	ReadWrite bool `json:"readwrite,omitempty"`
}

// StageSpec is a computation stage: expressions plus a cycle cost.
type StageSpec struct {
	Exprs  []string `json:"exprs"`
	Cycles int64    `json:"cycles,omitempty"`
}

// Parse decodes a JSON spec, rejecting unknown fields so typos surface.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("loopspec: %w", err)
	}
	return &s, nil
}

// Build materializes the spec: allocates and initializes the arrays in a
// fresh address space, compiles the expressions, and assembles a
// validated loop.
func Build(s *Spec) (*memsim.Space, *loopir.Loop, error) {
	if s.Name == "" {
		return nil, nil, fmt.Errorf("loopspec: spec has no name")
	}
	if s.Iters <= 0 {
		return nil, nil, fmt.Errorf("loopspec: %s: iters = %d", s.Name, s.Iters)
	}
	if len(s.Arrays) == 0 {
		return nil, nil, fmt.Errorf("loopspec: %s: no arrays", s.Name)
	}
	if len(s.Writes) == 0 {
		return nil, nil, fmt.Errorf("loopspec: %s: no writes", s.Name)
	}
	if len(s.Final.Exprs) != len(s.Writes) {
		return nil, nil, fmt.Errorf("loopspec: %s: final has %d expressions for %d writes",
			s.Name, len(s.Final.Exprs), len(s.Writes))
	}

	space := memsim.NewSpace()
	arrays := make(map[string]*memsim.Array, len(s.Arrays))
	for _, a := range s.Arrays {
		if a.Name == "" || a.Len <= 0 {
			return nil, nil, fmt.Errorf("loopspec: %s: array %q with len %d", s.Name, a.Name, a.Len)
		}
		if _, dup := arrays[a.Name]; dup {
			return nil, nil, fmt.Errorf("loopspec: %s: duplicate array %q", s.Name, a.Name)
		}
		elem := a.Elem
		if elem == 0 {
			elem = 8
		}
		if !memsim.IsPow2(elem) {
			return nil, nil, fmt.Errorf("loopspec: %s: array %s: elem %d is not a power of two", s.Name, a.Name, elem)
		}
		var arr *memsim.Array
		if c := a.Congruence; c != nil {
			if !memsim.IsPow2(c.Modulus) || c.Offset < 0 || c.Offset >= c.Modulus {
				return nil, nil, fmt.Errorf("loopspec: %s: array %s: congruence %d mod %d (want a power-of-two modulus and 0 <= offset < modulus)",
					s.Name, a.Name, c.Offset, c.Modulus)
			}
			arr = space.AllocAt(a.Name, a.Len, elem, c.Offset, c.Modulus)
		} else {
			align := a.Align
			if align == 0 {
				align = elem
			}
			if !memsim.IsPow2(align) || align < elem {
				return nil, nil, fmt.Errorf("loopspec: %s: array %s: align %d is not a power of two >= elem %d", s.Name, a.Name, align, elem)
			}
			arr = space.Alloc(a.Name, a.Len, elem, align)
		}
		if a.Init != "" {
			expr, err := Compile(a.Init, []string{"i", "n"})
			if err != nil {
				return nil, nil, fmt.Errorf("loopspec: %s: array %s init: %w", s.Name, a.Name, err)
			}
			n := float64(a.Len)
			vals := make([]float64, 2)
			arr.Fill(func(i int) float64 {
				vals[0], vals[1] = float64(i), n
				return expr.Eval(vals, s.Seed)
			})
		}
		arrays[a.Name] = arr
	}

	mkRef := func(r RefSpec) (loopir.Ref, error) {
		arr, ok := arrays[r.Array]
		if !ok {
			return loopir.Ref{}, fmt.Errorf("loopspec: %s: unknown array %q", s.Name, r.Array)
		}
		scale := 1
		if r.Index.Scale != nil {
			scale = *r.Index.Scale
		}
		aff := loopir.Affine{Scale: scale, Offset: r.Index.Offset}
		var ix loopir.IndexExpr = aff
		if r.Index.Table != "" {
			tbl, ok := arrays[r.Index.Table]
			if !ok {
				return loopir.Ref{}, fmt.Errorf("loopspec: %s: unknown index table %q", s.Name, r.Index.Table)
			}
			for k := 0; k < tbl.Len(); k++ {
				if v := tbl.Load(k); float64(int(v)) != v {
					return loopir.Ref{}, fmt.Errorf("loopspec: %s: index table %s element %d = %v is not an integer", s.Name, tbl.Name(), k, v)
				}
			}
			ix = loopir.Indirect{Tbl: tbl, Entry: aff}
		}
		return loopir.Ref{Array: arr, Index: ix}, nil
	}

	var ro, rw []loopir.Ref
	for _, r := range s.Reads {
		ref, err := mkRef(r)
		if err != nil {
			return nil, nil, err
		}
		if r.ReadWrite {
			rw = append(rw, ref)
		} else {
			ro = append(ro, ref)
		}
	}
	writes := make([]loopir.Ref, 0, len(s.Writes))
	for _, r := range s.Writes {
		ref, err := mkRef(r)
		if err != nil {
			return nil, nil, err
		}
		writes = append(writes, ref)
	}

	l := &loopir.Loop{
		Name:               s.Name,
		Iters:              s.Iters,
		RO:                 ro,
		RW:                 rw,
		Writes:             writes,
		FinalCycles:        s.Final.Cycles,
		NoCompilerPrefetch: s.NoCompilerPrefetch,
	}

	// Compile the pre stage.
	nPreInputs := len(ro)
	preNames := varNames("r", nPreInputs)
	if s.Pre != nil {
		if len(s.Pre.Exprs) == 0 {
			return nil, nil, fmt.Errorf("loopspec: %s: pre stage with no expressions", s.Name)
		}
		exprs, err := compileAll(s.Pre.Exprs, append([]string{"i"}, preNames...))
		if err != nil {
			return nil, nil, fmt.Errorf("loopspec: %s: pre: %w", s.Name, err)
		}
		l.PreCycles = s.Pre.Cycles
		l.NPre = len(exprs)
		seed := s.Seed
		scratchIn := make([]float64, 1+nPreInputs)
		scratchOut := make([]float64, len(exprs))
		l.Pre = func(i int, roVals []float64) []float64 {
			scratchIn[0] = float64(i)
			copy(scratchIn[1:], roVals)
			for k, e := range exprs {
				scratchOut[k] = e.Eval(scratchIn, seed)
			}
			return scratchOut
		}
	}

	// Compile the final stage.
	finalPreNames := varNames("p", l.NPre)
	if s.Pre == nil {
		finalPreNames = preNames // raw operands keep their r names
	}
	finalVars := append(append([]string{"i"}, finalPreNames...), varNames("rw", len(rw))...)
	finalExprs, err := compileAll(s.Final.Exprs, finalVars)
	if err != nil {
		return nil, nil, fmt.Errorf("loopspec: %s: final: %w", s.Name, err)
	}
	seed := s.Seed
	nPre := l.NPre
	if s.Pre == nil {
		nPre = nPreInputs
	}
	finIn := make([]float64, 1+nPre+len(rw))
	finOut := make([]float64, len(finalExprs))
	l.Final = func(i int, pre, rwVals []float64) []float64 {
		finIn[0] = float64(i)
		copy(finIn[1:], pre)
		copy(finIn[1+len(pre):], rwVals)
		for k, e := range finalExprs {
			finOut[k] = e.Eval(finIn, seed)
		}
		return finOut
	}

	if err := l.Validate(); err != nil {
		return nil, nil, err
	}
	if err := l.CheckBounds(); err != nil {
		return nil, nil, err
	}
	return space, l, nil
}

// compileAll compiles a list of expressions against one scope.
func compileAll(srcs, vars []string) ([]*Expr, error) {
	out := make([]*Expr, len(srcs))
	for k, src := range srcs {
		e, err := Compile(src, vars)
		if err != nil {
			return nil, err
		}
		out[k] = e
	}
	return out, nil
}

// varNames generates prefix0..prefix(n-1).
func varNames(prefix string, n int) []string {
	out := make([]string, n)
	for k := range out {
		out[k] = fmt.Sprintf("%s%d", prefix, k)
	}
	return out
}
