package machine

import (
	"fmt"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/metrics"
)

// Snapshot is a copy-on-write capture of a machine's full simulated
// state: every processor's hierarchy (L1, L2, TLB, victim buffer), the
// coherence bus's transaction shards, and the metrics registry. Cache
// line arrays are sealed, not copied — taking a snapshot and forking
// from it are both O(components); a fork pays to copy only the
// components its tail actually writes (see internal/cache/snapshot.go).
//
// Snapshots must be taken at quiescent points: any chunk boundary, with
// the bus out of the parallel scheduler's isolated mode. The metrics capture includes run-
// driver counters and phase timers, so a resumed run can seed its timers
// with the prefix's cycles and the PR 1 conservation identities keep
// holding across the fork boundary: prefix metrics + tail deltas equal a
// fresh full run's metrics.
type Snapshot struct {
	cfg     Config
	hiers   []*cache.HierarchyState
	bus     []coherence.Stats
	metrics metrics.Snapshot
}

// Config returns the configuration of the snapshotted machine.
func (s *Snapshot) Config() Config { return s.cfg }

// Metrics returns the metrics capture taken with the snapshot (all
// registered sources, run-driver timers included).
func (s *Snapshot) Metrics() metrics.Snapshot { return s.metrics }

// MemBytes is the host memory the snapshot's sealed arrays occupy: every
// processor's L1 and L2 slot records, TLB entries and victim-buffer
// entries (see cache.HierarchyState.MemBytes), plus the bus shards.
// Sealed arrays are shared copy-on-write with the machine they were taken
// from, so this is the most that keeping the snapshot can cost.
func (s *Snapshot) MemBytes() int64 {
	n := int64(len(s.bus)) * int64(unsafe.Sizeof(coherence.Stats{}))
	for _, h := range s.hiers {
		n += h.MemBytes()
	}
	return n
}

// Snapshot captures the machine's state. The machine keeps running
// afterwards; its next write to a sealed component copies that
// component first. It errors if the bus is isolated or a classification
// shadow is attached (both incompatible with cheap sealing).
func (m *Machine) Snapshot() (*Snapshot, error) {
	if m.bus.Isolated() {
		return nil, fmt.Errorf("machine %s: cannot snapshot while the bus is isolated", m.cfg.Name)
	}
	s := &Snapshot{cfg: m.cfg, metrics: m.reg.Snapshot()}
	for _, p := range m.procs {
		hs, err := p.h.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("machine %s p%d: %w", m.cfg.Name, p.id, err)
		}
		s.hiers = append(s.hiers, hs)
	}
	s.bus = m.bus.SnapshotShards()
	return s, nil
}

// stateCompatible checks that a machine built from cfg can adopt the
// component state of one built from base, from a snapshot or a capture.
// Simulation-speed knobs (Engine, Parallel) and latency
// parameters may differ — they change how the tail is simulated or
// charged, not the shape of the captured state — but the structural
// fields must match.
func stateCompatible(base, cfg Config) error {
	switch {
	case cfg.Procs != base.Procs:
		return fmt.Errorf("machine: fork changes processor count %d -> %d", base.Procs, cfg.Procs)
	case cfg.L1 != base.L1:
		return fmt.Errorf("machine: fork changes L1 geometry")
	case cfg.L2 != base.L2:
		return fmt.Errorf("machine: fork changes L2 geometry")
	case cfg.TLB != base.TLB:
		return fmt.Errorf("machine: fork changes TLB geometry")
	case cfg.VictimEntries != base.VictimEntries:
		return fmt.Errorf("machine: fork changes victim-buffer size %d -> %d", base.VictimEntries, cfg.VictimEntries)
	}
	return nil
}

// Restore points the machine's components at the snapshot's sealed state
// (copy-on-write) and clears every fast-path hint. Components are
// mutated in place, so metrics-registry registrations taken at
// construction remain valid. The machine must be fork-compatible with
// the snapshot.
func (m *Machine) Restore(s *Snapshot) error {
	if err := stateCompatible(s.cfg, m.cfg); err != nil {
		return err
	}
	if m.bus.Isolated() {
		return fmt.Errorf("machine %s: cannot restore while the bus is isolated", m.cfg.Name)
	}
	for i, p := range m.procs {
		if err := p.h.Restore(s.hiers[i]); err != nil {
			return fmt.Errorf("machine %s p%d: %w", m.cfg.Name, i, err)
		}
	}
	m.bus.RestoreShards(s.bus)
	return nil
}

// Fork builds a fresh machine whose caches, TLBs, victim buffers, and
// bus counters start exactly where the snapshot left them, sharing the
// snapshot's storage copy-on-write until first write. Options adjust the
// fork's configuration (engine, parallelism, checkpoint
// cadence, latencies); structural fields must stay fork-compatible.
//
// A fork's fast-path hints (line memos, TLB hint table) start empty
// rather than inheriting the parent's. Hints are verified search
// shortcuts — they affect wall-clock speed only — so the fork is
// observably identical to the machine the snapshot was taken from.
func (s *Snapshot) Fork(opts ...Option) (*Machine, error) {
	cfg := s.cfg
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := stateCompatible(s.cfg, cfg); err != nil {
		return nil, err
	}
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := m.Restore(s); err != nil {
		return nil, err
	}
	return m, nil
}

// SharedComponents reports which components still share snapshot storage
// (never written since the last snapshot or restore), as names like
// "p0.l1", "p2.tlb" — the per-fork dirty map: everything NOT listed has
// been copied and privately mutated.
func (m *Machine) SharedComponents() []string {
	var out []string
	for i, p := range m.procs {
		for _, c := range p.h.SharedComponents() {
			out = append(out, fmt.Sprintf("p%d.%s", i, c))
		}
	}
	return out
}

// ProcState is one processor's resident-state summary in an Inspect.
type ProcState struct {
	Proc      int             `json:"proc"`
	Occupancy cache.Occupancy `json:"occupancy"`
}

// Inspect is a read-only rendering of a snapshot for replay/inspection
// endpoints ("show me the cache state at iteration k"). Producing it
// scans the sealed arrays without copying them or building a machine.
type Inspect struct {
	Machine string           `json:"machine"`
	Procs   []ProcState      `json:"procs"`
	Bus     coherence.Stats  `json:"bus"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// Inspect summarizes the snapshot's state.
func (s *Snapshot) Inspect() Inspect {
	out := Inspect{Machine: s.cfg.Name, Metrics: s.metrics}
	for i, h := range s.hiers {
		out.Procs = append(out.Procs, ProcState{Proc: i, Occupancy: h.Occupancy()})
	}
	for _, sh := range s.bus {
		out.Bus.MemFetches += sh.MemFetches
		out.Bus.CacheToCache += sh.CacheToCache
		out.Bus.InvalidationsOut += sh.InvalidationsOut
		out.Bus.Upgrades += sh.Upgrades
		out.Bus.Writebacks += sh.Writebacks
	}
	return out
}
