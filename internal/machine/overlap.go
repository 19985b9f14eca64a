package machine

import "repro/internal/cache"

// IterCost accumulates the accesses of a group issued close together (the
// references of one loop iteration) and combines their latencies under a
// bounded memory-level-parallelism model. Its zero value is an empty
// group.
//
// Both paper machines have non-blocking caches that allow up to four
// outstanding requests to L2 and memory. We model this as: the serial
// portion of every access (its L1 lookup) is paid in full, while the miss
// penalties overlap in windows of maxOutstanding. The resulting stall is
//
//	max(largest single penalty, ceil(total penalty / maxOutstanding))
//
// which reduces to full serialization when maxOutstanding is 1 and to the
// single penalty when only one access misses. The group keeps only the
// three sums the formula needs, so adding an access costs a few
// instructions and no memory.
type IterCost struct {
	serial, totalPenalty, maxPenalty int64
}

// Add records one access of the group.
func (c *IterCost) Add(r cache.Result) {
	c.serial += r.Cycles - r.MissPenalty
	c.totalPenalty += r.MissPenalty
	if r.MissPenalty > c.maxPenalty {
		c.maxPenalty = r.MissPenalty
	}
}

// Cost returns the group's cycles with at most maxOutstanding misses in
// flight.
func (c *IterCost) Cost(maxOutstanding int) int64 {
	if maxOutstanding < 1 {
		panic("machine: IterCost.Cost with maxOutstanding < 1")
	}
	if c.totalPenalty == 0 {
		return c.serial
	}
	overlapped := (c.totalPenalty + int64(maxOutstanding) - 1) / int64(maxOutstanding)
	if overlapped < c.maxPenalty {
		overlapped = c.maxPenalty
	}
	return c.serial + overlapped
}
