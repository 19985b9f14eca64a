package machine

import (
	"fmt"

	"repro/internal/cache"
)

// Capture is a packed copy of a machine's cache contents: every
// processor's valid L1 and L2 lines with their slot indices, LRU ticks,
// TLB and victim-buffer entries (see cache.PackedState). It is the one
// form of machine state the simulator keeps for a start state that many
// runs load and none continues: the state a loop of a cold PARMVR call
// starts from after its preceding parallel section, or the caches of a
// steady-state call after the warm-up calls.
//
// A Capture shares no storage with any machine: LoadCapture copies the
// lines into the target's own arrays, so one Capture serves any number
// of machines concurrently. It holds no statistics; loading one zeroes
// every registered statistic, the bus counters and run-driver timers
// included, as the measured-region boundary does. The bus keeps no other
// state.
type Capture struct {
	cfg   Config
	hiers []*cache.PackedState
}

// Capture packs the machine's cache contents. It errors if the bus is
// isolated or a classification shadow is attached.
func (m *Machine) Capture() (*Capture, error) {
	if m.bus.Isolated() {
		return nil, fmt.Errorf("machine %s: cannot capture while the bus is isolated", m.cfg.Name)
	}
	c := &Capture{cfg: m.cfg, hiers: make([]*cache.PackedState, len(m.procs))}
	for i, p := range m.procs {
		ps, err := p.h.Pack()
		if err != nil {
			return nil, fmt.Errorf("machine %s p%d: %w", m.cfg.Name, i, err)
		}
		c.hiers[i] = ps
	}
	return c, nil
}

// stateCompatible checks that a machine built from cfg can adopt the
// component state of one built from base. Simulation-speed knobs
// (Engine, Parallel) and latency parameters may differ — they change how
// the run is simulated or charged, not the shape of the captured state —
// but the structural fields must match.
func stateCompatible(base, cfg Config) error {
	switch {
	case cfg.Procs != base.Procs:
		return fmt.Errorf("machine: capture of %d processors loaded into %d", base.Procs, cfg.Procs)
	case cfg.L1 != base.L1:
		return fmt.Errorf("machine: capture changes L1 geometry")
	case cfg.L2 != base.L2:
		return fmt.Errorf("machine: capture changes L2 geometry")
	case cfg.TLB != base.TLB:
		return fmt.Errorf("machine: capture changes TLB geometry")
	case cfg.VictimEntries != base.VictimEntries:
		return fmt.Errorf("machine: capture changes victim-buffer size %d -> %d", base.VictimEntries, cfg.VictimEntries)
	}
	return nil
}

// LoadCapture replaces the machine's cache contents with the capture's
// and zeroes every registered statistic. The machine's state is then
// observably the captured machine's at the instant of the capture, up to
// statistics. The machine must be shape-compatible with the captured one
// (same processor count and cache, TLB and victim geometries). Every
// component is marked untouched until its next access (see
// UntouchedComponents).
func (m *Machine) LoadCapture(c *Capture) error {
	if err := stateCompatible(c.cfg, m.cfg); err != nil {
		return err
	}
	if m.bus.Isolated() {
		return fmt.Errorf("machine %s: cannot load a capture while the bus is isolated", m.cfg.Name)
	}
	for i, p := range m.procs {
		if err := p.h.Unpack(c.hiers[i]); err != nil {
			return fmt.Errorf("machine %s p%d: %w", m.cfg.Name, i, err)
		}
	}
	m.reg.ResetStats()
	return nil
}

// MemBytes is the host memory the capture holds.
func (c *Capture) MemBytes() int64 {
	var n int64
	for _, h := range c.hiers {
		n += h.MemBytes()
	}
	return n
}

// UntouchedComponents reports which components no access or reset has
// reached since a capture was last loaded, as names like "p0.l1" or
// "p2.tlb": the part of a loaded start state a run never used.
func (m *Machine) UntouchedComponents() []string {
	var out []string
	for i, p := range m.procs {
		for _, c := range p.h.UntouchedComponents() {
			out = append(out, fmt.Sprintf("p%d.%s", i, c))
		}
	}
	return out
}
