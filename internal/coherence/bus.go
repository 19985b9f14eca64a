// Package coherence implements a snooping, write-invalidate MSI bus
// connecting the private cache hierarchies of the simulated multiprocessor.
//
// The protocol is the textbook MSI protocol at L2-line granularity:
//
//   - a read miss (BusRd) is supplied by a remote Modified copy if one
//     exists (cache-to-cache transfer, with the owner downgrading to
//     Shared and the data written back), otherwise by memory;
//   - a write miss (BusRdX) invalidates every remote copy and installs the
//     line Modified;
//   - a write hit on a Shared line (BusUpgr) invalidates remote copies
//     without a data transfer.
//
// Bus occupancy/contention is not modelled (see DESIGN.md §4): each
// transaction pays its own fixed latency. The paper's workloads are
// latency-bound at 4-8 processors, and cascaded execution by construction
// has only one processor issuing demand traffic at a time.
package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/memsim"
)

// Stats counts bus transactions.
type Stats struct {
	MemFetches       int64 // lines supplied by memory
	CacheToCache     int64 // lines supplied by a remote Modified copy
	InvalidationsOut int64 // remote copies invalidated (BusRdX/BusUpgr)
	Upgrades         int64 // BusUpgr transactions
	Writebacks       int64 // dirty lines written back to memory
}

// Bus is the shared interconnect. Hierarchies attach via Port, which gives
// each one a cache.LineSource view of the bus.
type Bus struct {
	memLatency     int64
	c2cLatency     int64
	upgradeLatency int64
	lineSize       memsim.Addr // L2 line size; all attached hierarchies agree

	nodes []*cache.Hierarchy
	stats Stats
}

// NewBus creates a bus. memLatency is the cost of a memory supply,
// c2cLatency the cost of a cache-to-cache supply, and upgradeLatency the
// cost of an invalidation broadcast when remote copies exist.
func NewBus(memLatency, c2cLatency, upgradeLatency int64, l2LineSize int) *Bus {
	if !memsim.IsPow2(l2LineSize) {
		panic(fmt.Sprintf("coherence: line size %d not a power of two", l2LineSize))
	}
	return &Bus{
		memLatency:     memLatency,
		c2cLatency:     c2cLatency,
		upgradeLatency: upgradeLatency,
		lineSize:       memsim.Addr(l2LineSize),
	}
}

// Stats returns the transaction counters.
func (b *Bus) Stats() Stats { return b.stats }

// ResetStats zeroes the transaction counters.
func (b *Bus) ResetStats() { b.stats = Stats{} }

// EmitMetrics reports the transaction counters (metrics Source contract;
// see internal/metrics).
func (b *Bus) EmitMetrics(emit func(name string, value int64)) {
	s := b.stats
	emit("mem_fetches", s.MemFetches)
	emit("cache_to_cache", s.CacheToCache)
	emit("invalidations_out", s.InvalidationsOut)
	emit("upgrades", s.Upgrades)
	emit("writebacks", s.Writebacks)
}

// Port returns the LineSource through which node id accesses the bus. The
// id must match the index the hierarchy is later attached at.
func (b *Bus) Port(id int) cache.LineSource {
	return &port{bus: b, self: id}
}

// Attach registers a hierarchy as node id. Hierarchies must be attached in
// id order, and their L2 line size must match the bus's.
func (b *Bus) Attach(id int, h *cache.Hierarchy) {
	if id != len(b.nodes) {
		panic(fmt.Sprintf("coherence: Attach(%d) out of order, have %d nodes", id, len(b.nodes)))
	}
	if h.L2.Config().LineSize != int(b.lineSize) {
		panic(fmt.Sprintf("coherence: node %d L2 line size %d != bus line size %d",
			id, h.L2.Config().LineSize, b.lineSize))
	}
	b.nodes = append(b.nodes, h)
}

// Nodes returns the number of attached hierarchies.
func (b *Bus) Nodes() int { return len(b.nodes) }

// port adapts the bus to cache.LineSource for one node.
type port struct {
	bus  *Bus
	self int
}

// FetchLine implements cache.LineSource: BusRd (read) or BusRdX (write).
func (p *port) FetchLine(lineAddr memsim.Addr, write bool) (int64, cache.State) {
	b := p.bus
	if lineAddr&(b.lineSize-1) != 0 {
		panic(fmt.Sprintf("coherence: FetchLine(%s) not line-aligned", lineAddr))
	}
	st := &b.stats
	if write {
		// BusRdX: every remote copy dies; a remote Modified copy supplies
		// the data (and implicitly merges through memory).
		supplied := false
		for i, n := range b.nodes {
			if i == p.self {
				continue
			}
			s := n.Probe(lineAddr)
			if s == cache.Invalid {
				continue
			}
			if n.CoherenceInvalidate(lineAddr) {
				supplied = true
				st.Writebacks++
			}
			st.InvalidationsOut++
		}
		if supplied {
			st.CacheToCache++
			return b.c2cLatency, cache.Modified
		}
		st.MemFetches++
		return b.memLatency, cache.Modified
	}
	// BusRd: a remote Modified copy supplies and downgrades to Shared.
	for i, n := range b.nodes {
		if i == p.self {
			continue
		}
		if n.Probe(lineAddr) != cache.Modified {
			continue
		}
		if n.CoherenceDowngrade(lineAddr) {
			st.CacheToCache++
			st.Writebacks++ // owner flushes the dirty data
			return b.c2cLatency, cache.Shared
		}
	}
	st.MemFetches++
	return b.memLatency, cache.Shared
}

// UpgradeLine implements cache.LineSource: BusUpgr.
func (p *port) UpgradeLine(lineAddr memsim.Addr) int64 {
	b := p.bus
	invalidated := 0
	for i, n := range b.nodes {
		if i == p.self {
			continue
		}
		if n.Probe(lineAddr) == cache.Invalid {
			continue
		}
		// A remote copy of a line we hold Shared can itself only be Shared.
		n.CoherenceInvalidate(lineAddr)
		invalidated++
	}
	st := &b.stats
	st.InvalidationsOut += int64(invalidated)
	if invalidated == 0 {
		// No remote copies: the upgrade is local (the MSI simplification of
		// an E state). No bus transaction is charged.
		return 0
	}
	st.Upgrades++
	return b.upgradeLatency
}

// WritebackLine implements cache.LineSource.
func (p *port) WritebackLine(memsim.Addr) {
	p.bus.stats.Writebacks++
}
