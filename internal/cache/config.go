// Package cache implements the set-associative, write-back, write-allocate
// cache model and the two-level private hierarchy used by the cascaded
// execution simulator.
//
// Lines carry MSI coherence states so the same model serves both a
// uniprocessor hierarchy (states degenerate to valid/dirty) and the bus-based
// multiprocessor in internal/coherence. Timing is expressed in cycles; the
// hierarchy reports, per access, the level that satisfied it and the total
// latency, which the interpreter combines with a bounded-outstanding-miss
// overlap model (the paper's machines allow four outstanding requests).
package cache

import (
	"fmt"

	"repro/internal/memsim"
)

// Config describes one cache level.
type Config struct {
	Name       string // e.g. "L1", "L2"
	Size       int    // total capacity in bytes (power of two)
	Assoc      int    // associativity (power of two)
	LineSize   int    // line size in bytes (power of two)
	HitLatency int64  // access latency in cycles when the line is present
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case !memsim.IsPow2(c.Size):
		return fmt.Errorf("cache %s: size %d not a power of two", c.Name, c.Size)
	case !memsim.IsPow2(c.Assoc):
		return fmt.Errorf("cache %s: associativity %d not a power of two", c.Name, c.Assoc)
	case !memsim.IsPow2(c.LineSize):
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineSize)
	case c.LineSize < 4:
		// A line's key keeps its state in the address's two low bits.
		return fmt.Errorf("cache %s: line size %d below 4 bytes", c.Name, c.LineSize)
	case c.Size < c.Assoc*c.LineSize:
		return fmt.Errorf("cache %s: size %d smaller than one set (%d ways x %d bytes)",
			c.Name, c.Size, c.Assoc, c.LineSize)
	case c.HitLatency < 0:
		return fmt.Errorf("cache %s: negative hit latency %d", c.Name, c.HitLatency)
	}
	return nil
}

// NumSets returns the number of sets.
func (c Config) NumSets() int { return c.Size / (c.Assoc * c.LineSize) }

// NumLines returns the total number of lines.
func (c Config) NumLines() int { return c.Size / c.LineSize }

// WaySize returns the number of bytes covered by one way: addresses equal
// modulo WaySize map to the same set. This is the modulus used to engineer
// set conflicts.
func (c Config) WaySize() int { return c.Size / c.Assoc }

// String summarises the geometry, e.g. "L1 8KB/2-way/32B/3cy".
func (c Config) String() string {
	return fmt.Sprintf("%s %dKB/%d-way/%dB/%dcy", c.Name, c.Size/1024, c.Assoc, c.LineSize, c.HitLatency)
}

// State is the MSI coherence state of a cache line. In a uniprocessor
// hierarchy, Shared means "present and clean" and Modified means "present
// and dirty".
type State uint8

const (
	// Invalid: the line is not present.
	Invalid State = iota
	// Shared: present, read-only, clean.
	Shared
	// Modified: present, writable, dirty; this cache owns the only copy.
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}
