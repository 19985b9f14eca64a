package cascade

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/memsim"
)

// randomLoop generates a structurally random but valid loop: a random mix
// of read-only refs (affine or indirect), an optional read-modify-write
// scatter, random strides and placements, and value semantics derived
// from the generated structure. The same seed always yields the same
// loop over fresh arrays, so strategies can be compared run-to-run.
func randomLoop(seed int64) (*memsim.Space, *loopir.Loop) {
	rng := rand.New(rand.NewSource(seed))
	s := memsim.NewSpace()
	iters := 200 + rng.Intn(1500)

	alloc := func(name string, n, elem int) *memsim.Array {
		if rng.Intn(2) == 0 {
			return s.AllocAt(name, n, elem, rng.Intn(8)*512, 4096)
		}
		return s.Alloc(name, n, elem, elem)
	}

	// An index table that permutes [0, iters).
	mkTable := func(name string) *memsim.Array {
		tbl := alloc(name, iters, 4)
		perm := rng.Perm(iters)
		tbl.Fill(func(i int) float64 { return float64(perm[i]) })
		return tbl
	}

	// Random read-only refs.
	nRO := 1 + rng.Intn(4)
	ro := make([]loopir.Ref, 0, nRO)
	for k := 0; k < nRO; k++ {
		elem := []int{4, 8}[rng.Intn(2)]
		if rng.Intn(3) == 0 { // indirect gather from a small table
			target := alloc(fmt.Sprintf("G%d", k), iters, elem)
			target.Fill(func(i int) float64 { return float64((i*7 + k) % 101) })
			ro = append(ro, loopir.Ref{
				Array: target,
				Index: loopir.Indirect{Tbl: mkTable(fmt.Sprintf("GT%d", k)), Entry: loopir.Ident},
			})
		} else { // strided stream
			stride := 1 + rng.Intn(3)
			arr := alloc(fmt.Sprintf("S%d", k), iters*stride, elem)
			arr.Fill(func(i int) float64 { return float64((i + k) % 97) })
			ro = append(ro, loopir.Ref{Array: arr, Index: loopir.Stride(stride)})
		}
	}

	// Write target: either a plain output stream or a scatter RMW.
	var rw, writes []loopir.Ref
	scatter := rng.Intn(2) == 0
	out := alloc("OUT", iters, 8)
	if scatter {
		out.Fill(func(i int) float64 { return float64(i % 89) })
		ref := loopir.Ref{
			Array: out,
			Index: loopir.Indirect{Tbl: mkTable("WT"), Entry: loopir.Ident},
		}
		rw = []loopir.Ref{ref}
		writes = []loopir.Ref{ref}
	} else {
		writes = []loopir.Ref{{Array: out, Index: loopir.Ident}}
	}

	l := &loopir.Loop{
		Name:        fmt.Sprintf("rand%d", seed),
		Iters:       iters,
		RO:          ro,
		RW:          rw,
		Writes:      writes,
		PreCycles:   int64(rng.Intn(6)),
		FinalCycles: int64(1 + rng.Intn(6)),
		NPre:        1,
		// Factory form: each runner builds its own closure instances.
		NewPre: func() func(int, []float64) []float64 {
			return func(_ int, rov []float64) []float64 {
				sum := 0.0
				for j, v := range rov {
					sum += float64(j+1) * v
				}
				return []float64{sum}
			}
		},
		NewFinal: func() func(int, []float64, []float64) []float64 {
			return func(_ int, pre, rwv []float64) []float64 {
				v := pre[0]
				if len(rwv) > 0 {
					v += rwv[0]
				}
				return []float64{v}
			}
		},
	}
	if err := l.Validate(); err != nil {
		panic(err)
	}
	if err := l.CheckBounds(); err != nil {
		panic(err)
	}
	return s, l
}

// RandomLoop exposes randomLoop to the package's external tests, which
// may import packages (wave5) that import this one.
var RandomLoop = randomLoop

// TestRandomLoopStrategyEquivalence is the strongest correctness property
// in the repository: for structurally random loops, every cascaded
// configuration (random helper, chunk size, jump-out, precompute,
// processor count, machine) produces results bitwise identical to
// sequential execution.
func TestRandomLoopStrategyEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		_, lref := randomLoop(seed)
		cfgRand := rand.New(rand.NewSource(seed ^ 0x5eed))
		var cfg machine.Config
		if cfgRand.Intn(2) == 0 {
			cfg = machine.PentiumPro(1 + cfgRand.Intn(4))
		} else {
			cfg = machine.R10000(1 + cfgRand.Intn(8))
		}
		RunSequential(machine.MustNew(cfg.WithProcs(1)), lref, cfgRand.Intn(2) == 0)
		want := lref.Writes[0].Array.Snapshot()

		s, l := randomLoop(seed)
		opts := Options{
			Helper:        Helper(cfgRand.Intn(2)),
			ChunkBytes:    256 << cfgRand.Intn(8),
			JumpOut:       cfgRand.Intn(2) == 0,
			Precompute:    cfgRand.Intn(2) == 0,
			Space:         s,
			PriorParallel: cfgRand.Intn(2) == 0,
		}
		if _, err := Run(machine.MustNew(cfg), l, opts); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if eq, idx := l.Writes[0].Array.Equal(want); !eq {
			t.Logf("seed %d: diverged at %d (opts %+v, machine %s/%d)",
				seed, idx, opts, cfg.Name, cfg.Procs)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRandomLoopUnboundedEquivalence does the same for the
// unbounded-processor simulation mode.
func TestRandomLoopUnboundedEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		_, lref := randomLoop(seed)
		RunSequential(machine.MustNew(machine.PentiumPro(1)), lref, false)
		want := lref.Writes[0].Array.Snapshot()

		s, l := randomLoop(seed)
		cfgRand := rand.New(rand.NewSource(seed ^ 0xabcd))
		opts := Options{
			Helper:     Helper(cfgRand.Intn(2)),
			ChunkBytes: 256 << cfgRand.Intn(8),
			JumpOut:    true,
			Precompute: cfgRand.Intn(2) == 0,
			Space:      s,
		}
		if _, err := RunUnbounded(machine.R10000(1), l, opts); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		eq, _ := l.Writes[0].Array.Equal(want)
		return eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCascadeTimelineInvariants checks structural properties of the
// finite-P timeline over random loops: with jump-out, the makespan is
// exactly execution plus transfers; transfers equal (chunks-1) x cost;
// helper iterations never exceed total iterations.
func TestCascadeTimelineInvariants(t *testing.T) {
	f := func(seed int64) bool {
		s, l := randomLoop(seed)
		cfg := machine.PentiumPro(4)
		opts := DefaultOptions(HelperRestructure, s)
		opts.ChunkBytes = 1024
		res, err := Run(machine.MustNew(cfg), l, opts)
		if err != nil {
			return false
		}
		if res.Cycles != res.ExecCycles+res.TransferCycles {
			return false
		}
		if res.TransferCycles != int64(res.Chunks-1)*cfg.TransferCycles {
			return false
		}
		if res.HelperIters > res.TotalIters || res.TotalIters != l.Iters {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSequentialExecStatsMatchTotals: for a sequential run the
// execution-phase stats are the totals.
func TestSequentialExecStatsMatchTotals(t *testing.T) {
	_, l := randomLoop(7)
	res := RunSequential(machine.MustNew(machine.PentiumPro(2)), l, true)
	if res.ExecL1 != res.L1 || res.ExecL2 != res.L2 {
		t.Error("sequential exec stats should equal totals")
	}
}
