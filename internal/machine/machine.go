package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/memsim"
	"repro/internal/metrics"
)

// Machine is a simulated shared-memory multiprocessor.
type Machine struct {
	cfg   Config
	bus   *coherence.Bus
	procs []*Processor
	reg   *metrics.Registry
}

// New builds a machine from cfg. It returns an error (rather than
// panicking) because configurations can come from CLI flags.
//
// Every stat-bearing component is registered in the machine's metrics
// registry at construction: processor i's hierarchy components under
// "p<i>.<component>" (l1, l2, tlb, victim) and the bus under "bus". All
// statistics resets route through that one registry, so a component's
// counters cannot survive a reset the rest of the machine observed.
func New(cfg Config, opts ...Option) (*Machine, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bus := coherence.NewBus(cfg.MemLatency, cfg.C2CLatency, cfg.UpgradeLatency, cfg.L2.LineSize)
	m := &Machine{cfg: cfg, bus: bus, reg: metrics.NewRegistry()}
	for i := 0; i < cfg.Procs; i++ {
		h := cache.NewHierarchy(cfg.L1, cfg.L2, bus.Port(i))
		h.StoreBuffered = cfg.StoreBuffered
		h.FastPath = cfg.Engine == EngineFast
		h.TLB = cache.NewTLB(cfg.TLB)
		if cfg.VictimEntries > 0 {
			h.EnableVictimBuffer(cfg.VictimEntries, cfg.VictimLatency)
		}
		bus.Attach(i, h)
		m.procs = append(m.procs, &Processor{id: i, m: m, h: h})
		for _, s := range h.StatSources() {
			m.reg.Register(fmt.Sprintf("p%d.%s", i, s.Name), s)
		}
	}
	m.reg.Register("bus", bus)
	return m, nil
}

// MustNew is New for known-good configurations (the presets).
func MustNew(cfg Config, opts ...Option) *Machine {
	m, err := New(cfg, opts...)
	if err != nil {
		panic("machine: " + err.Error())
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Procs returns the number of processors.
func (m *Machine) Procs() int { return len(m.procs) }

// Proc returns processor i.
func (m *Machine) Proc(i int) *Processor { return m.procs[i] }

// Bus returns the coherence bus (for statistics).
func (m *Machine) Bus() *coherence.Bus { return m.bus }

// Metrics returns the machine's metrics registry: every cache level, TLB,
// victim buffer, and the bus report there, and run drivers (the cascade
// runner) add their own counters and phase timers to it.
func (m *Machine) Metrics() *metrics.Registry { return m.reg }

// ResetCaches empties every processor's hierarchy and zeroes every
// registered statistic (bus, run-driver counters included).
func (m *Machine) ResetCaches() {
	for _, p := range m.procs {
		p.h.Reset()
	}
	m.reg.ResetStats()
}

// ResetStats zeroes every registered statistic without disturbing cache
// contents, so that measurements exclude warm-up traffic. This is the
// measured-region boundary: it routes through the metrics registry, which
// enumerates every stat-bearing component exactly once.
func (m *Machine) ResetStats() {
	m.reg.ResetStats()
}

// EnableClassification turns on miss classification on every cache. Opt-in
// because the shadow structures cost memory proportional to footprint.
func (m *Machine) EnableClassification() {
	for _, p := range m.procs {
		p.h.L1.EnableClassification()
		p.h.L2.EnableClassification()
	}
}

// L1Stats returns the sum of all processors' L1 statistics.
func (m *Machine) L1Stats() cache.Stats {
	var s cache.Stats
	for _, p := range m.procs {
		s.Add(p.h.L1.Stats())
	}
	return s
}

// TLBStats returns the sum of all processors' TLB statistics (zero when
// the machine models no TLB).
func (m *Machine) TLBStats() cache.TLBStats {
	var s cache.TLBStats
	for _, p := range m.procs {
		if t := p.h.TLB; t != nil {
			st := t.Stats()
			s.Accesses += st.Accesses
			s.Misses += st.Misses
		}
	}
	return s
}

// VictimStats returns the sum of all processors' victim-buffer counters.
func (m *Machine) VictimStats() cache.VictimStats {
	var s cache.VictimStats
	for _, p := range m.procs {
		st := p.h.VictimStats()
		s.Hits += st.Hits
		s.Inserts += st.Inserts
	}
	return s
}

// L2Stats returns the sum of all processors' L2 statistics.
func (m *Machine) L2Stats() cache.Stats {
	var s cache.Stats
	for _, p := range m.procs {
		s.Add(p.h.L2.Stats())
	}
	return s
}

// DistributeLines simulates the effect of the parallel section that
// precedes an unparallelized loop: the loop's data ends up spread across
// the processors' caches, dirty. Lines of the given byte ranges are
// written by processors round-robin at line granularity. Statistics are
// reset afterwards so measurements start clean.
func (m *Machine) DistributeLines(ranges []AddrRange) {
	lineSize := memsim.Addr(m.cfg.L2.LineSize)
	i := 0
	for _, r := range ranges {
		for a := r.Base.Line(int(lineSize)); a < r.Base+memsim.Addr(r.Bytes); a += lineSize {
			p := m.procs[i%len(m.procs)]
			p.h.Access(a, 1, true)
			i++
		}
	}
	m.ResetStats()
}

// AddrRange is a byte range of simulated addresses.
type AddrRange struct {
	Base  memsim.Addr
	Bytes int
}

// AccessObserver receives every demand access a processor performs, in
// program order. Observers are used to capture address traces; they see
// the access before any timing aggregation.
type AccessObserver func(addr memsim.Addr, size int, write bool)

// Processor is one CPU of the machine. It owns a private hierarchy; timing
// accumulation is the caller's job (the cascade runner models time
// explicitly), so Processor exposes per-access costs rather than a clock.
type Processor struct {
	id       int
	m        *Machine
	h        *cache.Hierarchy
	observer AccessObserver
}

// SetObserver installs (or, with nil, removes) an access observer.
func (p *Processor) SetObserver(o AccessObserver) { p.observer = o }

// ID returns the processor's index.
func (p *Processor) ID() int { return p.id }

// Hierarchy exposes the private caches (for statistics and tests).
func (p *Processor) Hierarchy() *cache.Hierarchy { return p.h }

// Machine returns the owning machine.
func (p *Processor) Machine() *Machine { return p.m }

// Access performs a demand access and returns its timing result.
func (p *Processor) Access(addr memsim.Addr, size int, write bool) cache.Result {
	if p.observer != nil {
		p.observer(addr, size, write)
	}
	return p.h.Access(addr, size, write)
}

// Prefetch installs the line containing addr without demand cost, modelling
// a prefetch instruction. It reports whether a memory fetch occurred.
func (p *Processor) Prefetch(addr memsim.Addr) bool {
	return p.h.PrefetchLine(addr)
}

// String implements fmt.Stringer.
func (p *Processor) String() string {
	return fmt.Sprintf("%s.cpu%d", p.m.cfg.Name, p.id)
}
