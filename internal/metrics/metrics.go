// Package metrics is the simulator's unified observability layer: a
// lightweight registry of named counters, gauges, and simulated-time phase
// timers with snapshot/diff/reset semantics.
//
// Every stat-bearing component (cache levels, TLBs, victim buffers, the
// coherence bus, the cascade timeline) registers itself as a Source under a
// stable dotted name. A measured region is then a first-class concept:
// snapshot the registry, run the region, and Diff the two snapshots — or
// reset the whole registry through one call. Because components are
// enumerated once, at registration, a counter can no longer be zeroed by
// Reset but missed by ResetStats (the victim-buffer leak class this package
// was built to eliminate).
//
// The registry is deliberately not safe for concurrent use: a registry
// belongs to one simulated machine, and a machine is driven by one
// goroutine (experiment sweeps parallelize across machines, never within
// one).
package metrics

import (
	"fmt"
	"sort"
)

// Source is a component that owns event counters. EmitMetrics reports every
// counter the component maintains under a component-local name; ResetStats
// zeroes exactly that set. Implementations must emit the same names on
// every call (zeros included), so snapshots have a stable shape.
//
// The emit callback uses an unnamed func type so that components can
// implement Source structurally, without importing this package.
type Source interface {
	EmitMetrics(emit func(name string, value int64))
	ResetStats()
}

// Registry holds named Sources and hands out ad-hoc counters, gauges, and
// phase timers. Registration order is preserved; snapshot names are
// "<registered-name>.<emitted-name>".
type Registry struct {
	entries []entry
	byName  map[string]Source
}

type entry struct {
	name string
	src  Source
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Source)}
}

// Register adds src under name. It panics on an empty or duplicate name:
// metric names are part of a machine's construction, so a collision is a
// programming error.
func (r *Registry) Register(name string, src Source) {
	if name == "" {
		panic("metrics: Register with empty name")
	}
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	r.byName[name] = src
	r.entries = append(r.entries, entry{name, src})
}

// lookup returns the source registered under name, or nil.
func (r *Registry) lookup(name string) Source {
	return r.byName[name]
}

// Counter returns the counter registered under name, creating and
// registering it on first use. It panics if name is taken by a non-counter.
func (r *Registry) Counter(name string) *Counter {
	if src := r.lookup(name); src != nil {
		c, ok := src.(*Counter)
		if !ok {
			panic(fmt.Sprintf("metrics: %q is not a Counter", name))
		}
		return c
	}
	c := &Counter{}
	r.Register(name, c)
	return c
}

// Gauge returns the gauge registered under name, creating and registering
// it on first use. It panics if name is taken by a non-gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if src := r.lookup(name); src != nil {
		g, ok := src.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("metrics: %q is not a Gauge", name))
		}
		return g
	}
	g := &Gauge{}
	r.Register(name, g)
	return g
}

// PhaseTimer returns the phase timer registered under name, creating and
// registering it on first use. The phase set is fixed at creation; asking
// for an existing timer with a different phase set panics.
func (r *Registry) PhaseTimer(name string, phases ...string) *PhaseTimer {
	if src := r.lookup(name); src != nil {
		t, ok := src.(*PhaseTimer)
		if !ok {
			panic(fmt.Sprintf("metrics: %q is not a PhaseTimer", name))
		}
		if len(t.phases) != len(phases) {
			panic(fmt.Sprintf("metrics: PhaseTimer %q phase mismatch", name))
		}
		for i := range phases {
			if t.phases[i] != phases[i] {
				panic(fmt.Sprintf("metrics: PhaseTimer %q phase mismatch", name))
			}
		}
		return t
	}
	if len(phases) == 0 {
		panic(fmt.Sprintf("metrics: PhaseTimer %q needs at least one phase", name))
	}
	t := &PhaseTimer{phases: append([]string(nil), phases...)}
	r.Register(name, t)
	return t
}

// Snapshot captures the current value of every registered metric. The
// returned map is independent of the registry; taking a snapshot never
// disturbs counters.
func (r *Registry) Snapshot() Snapshot {
	s := make(Snapshot)
	for _, e := range r.entries {
		prefix := e.name
		e.src.EmitMetrics(func(name string, value int64) {
			if name != "" {
				s[prefix+"."+name] = value
			} else {
				s[prefix] = value
			}
		})
	}
	return s
}

// ResetStats zeroes every registered source. This is the single reset path
// a simulated machine's warm-up/measured-region boundary goes through.
func (r *Registry) ResetStats() {
	for _, e := range r.entries {
		e.src.ResetStats()
	}
}

// Begin opens a measured region: the returned Region remembers the current
// snapshot, and End reports only what happened in between.
func (r *Registry) Begin() *Region {
	return &Region{reg: r, base: r.Snapshot()}
}

// Region brackets a measured region of a run (see Registry.Begin).
type Region struct {
	reg  *Registry
	base Snapshot
}

// End returns the metric deltas accumulated since Begin.
func (g *Region) End() Snapshot {
	return g.reg.Snapshot().Diff(g.base)
}

// Counter is a monotonically increasing event count.
type Counter struct {
	v int64
}

// Add increases the counter by d.
func (c *Counter) Add(d int64) { c.v += d }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// EmitMetrics implements Source.
func (c *Counter) EmitMetrics(emit func(string, int64)) { emit("", c.v) }

// ResetStats implements Source.
func (c *Counter) ResetStats() { c.v = 0 }

// Gauge is a last-value metric (e.g. a configured size or a high-water
// mark). Unlike counters, a gauge's Diff is rarely meaningful; gauges are
// read from snapshots directly.
type Gauge struct {
	v int64
}

// Set records the gauge's current value.
func (g *Gauge) Set(v int64) { g.v = v }

// Max raises the gauge to v if v is larger (high-water-mark use).
func (g *Gauge) Max(v int64) {
	if v > g.v {
		g.v = v
	}
}

// Value returns the last recorded value.
func (g *Gauge) Value() int64 { return g.v }

// EmitMetrics implements Source.
func (g *Gauge) EmitMetrics(emit func(string, int64)) { emit("", g.v) }

// ResetStats implements Source.
func (g *Gauge) ResetStats() { g.v = 0 }

// PhaseTimer accumulates simulated cycles by (processor, phase). It emits
// one counter per processor per phase, named "p<proc>.<phase>", plus a
// "total.<phase>" sum — giving every run a per-processor helper/execution/
// transfer breakdown.
type PhaseTimer struct {
	phases []string
	cells  [][]int64 // [proc][phase index]
}

// Add charges cycles to proc's phase. The processor set grows on demand;
// an unknown phase panics (phase names are compile-time constants at the
// call sites).
func (t *PhaseTimer) Add(proc int, phase string, cycles int64) {
	if proc < 0 {
		panic(fmt.Sprintf("metrics: PhaseTimer.Add proc %d", proc))
	}
	for proc >= len(t.cells) {
		t.cells = append(t.cells, make([]int64, len(t.phases)))
	}
	t.cells[proc][t.phaseIndex(phase)] += cycles
}

// Grow ensures the timer covers at least procs processors (zero-charged),
// so a snapshot's key set reflects the machine's shape rather than which
// processors happen to have been charged — forked and fresh machines
// emit identical shapes from the start.
func (t *PhaseTimer) Grow(procs int) {
	for len(t.cells) < procs {
		t.cells = append(t.cells, make([]int64, len(t.phases)))
	}
}

// Cycles returns the accumulated cycles for proc's phase (0 for a
// processor never charged).
func (t *PhaseTimer) Cycles(proc int, phase string) int64 {
	if proc < 0 || proc >= len(t.cells) {
		return 0
	}
	return t.cells[proc][t.phaseIndex(phase)]
}

// Total returns the phase's sum over all processors.
func (t *PhaseTimer) Total(phase string) int64 {
	i := t.phaseIndex(phase)
	var sum int64
	for _, row := range t.cells {
		sum += row[i]
	}
	return sum
}

// Procs returns the number of processors the timer has seen.
func (t *PhaseTimer) Procs() int { return len(t.cells) }

func (t *PhaseTimer) phaseIndex(phase string) int {
	for i, p := range t.phases {
		if p == phase {
			return i
		}
	}
	panic(fmt.Sprintf("metrics: unknown phase %q (have %v)", phase, t.phases))
}

// EmitMetrics implements Source.
func (t *PhaseTimer) EmitMetrics(emit func(string, int64)) {
	totals := make([]int64, len(t.phases))
	for proc, row := range t.cells {
		for i, phase := range t.phases {
			emit(fmt.Sprintf("p%d.%s", proc, phase), row[i])
			totals[i] += row[i]
		}
	}
	for i, phase := range t.phases {
		emit("total."+phase, totals[i])
	}
}

// ResetStats implements Source. The processor set is kept (the machine
// does not shrink); only the cycle counts are zeroed.
func (t *PhaseTimer) ResetStats() {
	for _, row := range t.cells {
		for i := range row {
			row[i] = 0
		}
	}
}

// Snapshot is a point-in-time capture of every metric in a registry,
// keyed by full dotted name. JSON encoding is deterministic (Go sorts map
// keys), so snapshots can be diffed textually across runs.
type Snapshot map[string]int64

// Get returns the named metric's value (0 when absent).
func (s Snapshot) Get(name string) int64 { return s[name] }

// Names returns the snapshot's keys, sorted.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s))
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Diff returns s - base pointwise over s's keys: the events of the region
// bracketed by the two snapshots. Keys only in base are dropped (a metric
// cannot disappear from a registry).
func (s Snapshot) Diff(base Snapshot) Snapshot {
	out := make(Snapshot, len(s))
	for n, v := range s {
		out[n] = v - base[n]
	}
	return out
}

// Merge returns the pointwise sum of s and other, for aggregating the
// snapshots of several runs (e.g. the loops of one sweep point).
func (s Snapshot) Merge(other Snapshot) Snapshot {
	out := make(Snapshot, len(s)+len(other))
	for n, v := range s {
		out[n] = v
	}
	for n, v := range other {
		out[n] += v
	}
	return out
}

// Merge sums any number of snapshots.
func Merge(snaps ...Snapshot) Snapshot {
	out := make(Snapshot)
	for _, s := range snaps {
		for n, v := range s {
			out[n] += v
		}
	}
	return out
}

// AllZero reports whether every metric in the snapshot is zero — the
// expected state immediately after a registry reset.
func (s Snapshot) AllZero() bool {
	for _, v := range s {
		if v != 0 {
			return false
		}
	}
	return true
}

// NonZero returns the subset of metrics with non-zero values, for compact
// reporting.
func (s Snapshot) NonZero() Snapshot {
	out := make(Snapshot)
	for n, v := range s {
		if v != 0 {
			out[n] = v
		}
	}
	return out
}

// WithPrefix returns the subset of metrics whose names start with
// prefix+"." (or equal prefix), with the prefix stripped.
func (s Snapshot) WithPrefix(prefix string) Snapshot {
	out := make(Snapshot)
	for n, v := range s {
		switch {
		case n == prefix:
			out[""] = v
		case len(n) > len(prefix)+1 && n[:len(prefix)] == prefix && n[len(prefix)] == '.':
			out[n[len(prefix)+1:]] = v
		}
	}
	return out
}
