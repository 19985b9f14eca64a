package main

import (
	"sync"
	"time"
)

// A machine that shares its cores with other work changes speed as that
// work comes and goes: on the 2-vCPU VM this benchmark was calibrated
// on, the same simulation took a third longer in some minutes than in
// others, which swamps any regression bound. The harness therefore times
// a fixed reference computation before the first repetition and after
// each one, and reports host times at a reference speed as well as
// measured:
//
//	t_norm = t × refNominal / ref
//
// where ref is the mean of the reference samples on either side of the
// repetition. The reference is the harness's own frozen code, not the
// program's, so a change to the program moves normalized times exactly
// as much as measured ones.
//
// The reference is a small set-associative cache simulation, the kind of
// work the simulator does, on two goroutines at once because the
// workloads keep two cores busy. A pure arithmetic loop tracked the
// simulator's slow-downs less closely, and a table larger than a core's
// L2 cache added noise of its own.

const (
	refLanes     = 2
	refSets      = 1 << 14 // × refWays × 8 bytes = 1 MiB of tags per lane
	refWays      = 8
	refAccesses  = 6_000_000
	refRepeats   = 3 // a sample is the median of this many timings
	refLineSpace = 1 << 22
)

// refNominal is the reference's median time on the calibration host
// (bench/e2e/baseline.json), so normalized times read as seconds there.
const refNominal = 145 * time.Millisecond

// hostRef holds the reference's tag tables, allocated once so that
// samples do not time page faults.
type hostRef struct {
	tags [refLanes][]uint64
}

func newHostRef() *hostRef {
	var r hostRef
	for i := range r.tags {
		r.tags[i] = make([]uint64, refSets*refWays)
	}
	return &r
}

// sample times the reference refRepeats times and returns the median.
func (r *hostRef) sample() time.Duration {
	var ts []float64
	for k := 0; k < refRepeats; k++ {
		start := time.Now()
		var wg sync.WaitGroup
		for i := range r.tags {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				refSink[i] = simulateCache(r.tags[i], uint64(i+1))
			}(i)
		}
		wg.Wait()
		ts = append(ts, float64(time.Since(start)))
	}
	return time.Duration(median(ts))
}

// refSink keeps the reference's results live so the compiler cannot
// drop the work.
var refSink [refLanes]int

// simulateCache runs refAccesses accesses through an LRU cache whose
// tags are tags: three in four walk forward through nearby lines, one in
// four jumps anywhere in refLineSpace. It returns the hit count.
func simulateCache(tags []uint64, seed uint64) int {
	x, base, hits := seed, uint64(0), 0
	for i := 0; i < refAccesses; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		line := (x >> 16) % refLineSpace
		if x&3 != 0 {
			base++
			line = base + (x>>8)&15
		}
		set := tags[(line%refSets)*refWays:][:refWays]
		w := 0
		for w < refWays-1 && set[w] != line+1 {
			w++
		}
		if set[w] == line+1 {
			hits++
		}
		copy(set[1:w+1], set[:w])
		set[0] = line + 1
	}
	return hits
}
