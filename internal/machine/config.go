// Package machine assembles the simulated shared-memory multiprocessor:
// P processors, each with a private two-level cache hierarchy, joined by a
// snooping MSI bus. It provides the two machine presets from Table 1 of
// the paper (the 4-way Pentium Pro PC server and the 8-way SGI Power Onyx
// R10000), the cross-processor control-transfer cost, and the
// bounded-outstanding-miss overlap model used to combine access latencies.
package machine

import (
	"fmt"

	"repro/internal/cache"
)

// PrefetchConfig models compiler-inserted software prefetching (the paper
// attributes the R10000's insensitivity to helper prefetching to MIPSpro's
// inserted prefetches). When enabled, the interpreter issues a prefetch
// Distance lines ahead for every reference whose stride is statically
// known, at IssueCost cycles per prefetch; indirect references are not
// covered, matching a compiler's static analysis.
type PrefetchConfig struct {
	Enabled   bool
	Distance  int   // lines of lookahead
	IssueCost int64 // cycles charged per issued prefetch instruction
}

// Engine selects the simulator implementation used for a machine's
// processors. Both engines produce bit-identical results — same cycle
// counts, same event counters, same LRU decisions — the choice only
// trades simulation speed against implementation simplicity. The
// differential tests in internal/cascade assert that equivalence.
type Engine int

const (
	// EngineFast is the default: loop bodies run from compiled access
	// plans (internal/interp) and each hierarchy short-circuits accesses
	// that land in the MRU L1 line of the previous access
	// (internal/cache). This is what experiment sweeps use.
	EngineFast Engine = iota
	// EngineReference is the original unoptimized path: the loop IR is
	// re-interpreted every iteration and every access walks the full
	// TLB/L1/L2/bus lookup. It exists as the oracle for differential
	// testing.
	EngineReference
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineFast:
		return "fast"
	case EngineReference:
		return "reference"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Config describes one simulated machine.
type Config struct {
	Name     string
	Procs    int
	ClockMHz int // informational; reported in Table 1 output

	// Engine selects the simulation implementation (fast compiled plans
	// versus the reference interpreter); it does not affect simulated
	// results, only wall-clock speed. The zero value is EngineFast.
	Engine Engine

	L1, L2     cache.Config
	MemLatency int64 // main-memory supply latency in cycles
	MemDesc    string

	// C2CLatency is the cost of a cache-to-cache supply (remote Modified
	// owner flushes the line). On the paper's bus-based machines this is
	// comparable to a memory access.
	C2CLatency int64
	// UpgradeLatency is the cost of an invalidation broadcast when a write
	// hits a line that remote caches also hold.
	UpgradeLatency int64

	// MaxOutstanding bounds the number of overlapping demand-miss
	// latencies within one iteration's access group. Both paper machines
	// have non-blocking caches with four outstanding requests, but on
	// 1997-era cores the dependency-chained loops of this evaluation
	// achieved essentially no demand-miss overlap (a ~40-entry reorder
	// buffer holds about one iteration); the paper's own Figure 7 — a 16x
	// sparse speedup — is arithmetically impossible against a baseline
	// with 4-wide miss overlap. The presets therefore model demand misses
	// serially (1); the hardware's outstanding-request capability shows up
	// in the prefetch paths and the store buffer instead.
	MaxOutstanding int

	// StoreBuffered models the machines' store buffers: stores perform
	// full coherence work but do not stall the instruction stream.
	StoreBuffered bool

	// TLB models the data TLB; a zero value disables translation costs.
	TLB cache.TLBConfig

	// VictimEntries, when positive, attaches a fully-associative victim
	// buffer of that many lines beside each L1 (Jouppi); VictimLatency is
	// the extra cost of a victim hit. Neither paper machine had one —
	// this is an extension for the what-if ablation.
	VictimEntries int
	VictimLatency int64

	// TransferCycles is the measured cost of passing control between
	// processors (shared-memory flag set + observation): 120 on the
	// Pentium Pro, 500 on the R10000.
	TransferCycles int64

	CompilerPrefetch PrefetchConfig
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Procs < 1 {
		return fmt.Errorf("machine %s: need at least 1 processor, got %d", c.Name, c.Procs)
	}
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("machine %s: %w", c.Name, err)
	}
	if err := c.L2.Validate(); err != nil {
		return fmt.Errorf("machine %s: %w", c.Name, err)
	}
	if c.L2.LineSize%c.L1.LineSize != 0 {
		return fmt.Errorf("machine %s: L2 line %dB not a multiple of L1 line %dB",
			c.Name, c.L2.LineSize, c.L1.LineSize)
	}
	if c.MemLatency <= 0 {
		return fmt.Errorf("machine %s: non-positive memory latency", c.Name)
	}
	if c.MaxOutstanding < 1 {
		return fmt.Errorf("machine %s: MaxOutstanding must be >= 1", c.Name)
	}
	if c.TransferCycles < 0 {
		return fmt.Errorf("machine %s: negative transfer cost", c.Name)
	}
	if c.CompilerPrefetch.Enabled && c.CompilerPrefetch.Distance < 1 {
		return fmt.Errorf("machine %s: compiler prefetch enabled with distance %d",
			c.Name, c.CompilerPrefetch.Distance)
	}
	if err := c.TLB.Validate(); err != nil {
		return fmt.Errorf("machine %s: %w", c.Name, err)
	}
	if c.Engine != EngineFast && c.Engine != EngineReference {
		return fmt.Errorf("machine %s: unknown engine %d", c.Name, int(c.Engine))
	}
	return nil
}

// WithEngine returns a copy of the configuration running on the given
// simulation engine (used by the differential fast-path tests).
func (c Config) WithEngine(e Engine) Config {
	c.Engine = e
	return c
}

// WithProcs returns a copy of the configuration with a different processor
// count (used by the Figure 2 processor sweep).
func (c Config) WithProcs(p int) Config {
	c.Procs = p
	return c
}

// WithVictim returns a copy of the configuration with a victim buffer of
// the given capacity and hit latency (entries 0 disables it).
func (c Config) WithVictim(entries int, latency int64) Config {
	c.VictimEntries = entries
	c.VictimLatency = latency
	return c
}

// PentiumPro returns the 4-processor 200 MHz Pentium Pro PC-server
// configuration from Table 1: L1 8KB/2-way/32B at 3 cycles, L2
// 512KB/4-way/32B at 7 cycles, memory at 58 cycles, 120-cycle control
// transfer, up to 4 outstanding misses, no compiler prefetching.
func PentiumPro(procs int) Config {
	return Config{
		Name:     "PentiumPro",
		Procs:    procs,
		ClockMHz: 200,
		L1:       cache.Config{Name: "L1", Size: 8 * 1024, Assoc: 2, LineSize: 32, HitLatency: 3},
		L2:       cache.Config{Name: "L2", Size: 512 * 1024, Assoc: 4, LineSize: 32, HitLatency: 7},

		MemLatency: 58,
		MemDesc:    "58",
		// Model parameters, not Table 1 figures: a cache-to-cache supply
		// on the P6 bus costs about a memory access. An invalidation
		// broadcast (BusUpgr) is an address-only transaction and the
		// store that triggers it retires through the store buffer, so
		// only a small issue cost reaches the execution time.
		C2CLatency:     58,
		UpgradeLatency: 12,
		MaxOutstanding: 1,
		StoreBuffered:  true,
		TransferCycles: 120,
		// 64-entry 4-way data TLB, 4KB pages, hardware page walk.
		TLB: cache.TLBConfig{Entries: 64, Assoc: 4, PageSize: 4096, MissLatency: 25},
	}
}

// R10000 returns the 8-processor 194 MHz SGI Power Onyx configuration from
// Table 1: L1 32KB/2-way/32B at 3 cycles, L2 2MB/2-way/128B at 6 cycles,
// memory at 100-200 cycles (modelled as 150), 500-cycle control transfer,
// up to 4 outstanding misses, and MIPSpro-style compiler prefetching of
// strided references.
func R10000(procs int) Config {
	return Config{
		Name:     "R10000",
		Procs:    procs,
		ClockMHz: 194,
		L1:       cache.Config{Name: "L1", Size: 32 * 1024, Assoc: 2, LineSize: 32, HitLatency: 3},
		L2:       cache.Config{Name: "L2", Size: 2 * 1024 * 1024, Assoc: 2, LineSize: 128, HitLatency: 6},

		MemLatency:     150,
		MemDesc:        "100-200",
		C2CLatency:     150,
		UpgradeLatency: 20,
		MaxOutstanding: 1,
		StoreBuffered:  true,
		TransferCycles: 500,
		// 64-entry fully-associative TLB, 4KB base pages, software refill.
		TLB: cache.TLBConfig{Entries: 64, Assoc: 64, PageSize: 4096, MissLatency: 70},
		CompilerPrefetch: PrefetchConfig{
			Enabled:   true,
			Distance:  8,
			IssueCost: 1,
		},
	}
}

// Presets returns the machine configurations evaluated in the paper, at
// their full processor counts.
func Presets() []Config {
	return []Config{PentiumPro(4), R10000(8)}
}
