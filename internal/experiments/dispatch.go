package experiments

import (
	"slices"
	"sort"
	"sync"
)

// Prefix-affine point dispatch. A decomposed sweep's points group by the
// prefix their decomposition declares, and each group's prefix is the
// sweep's expensive shared work. Cascaded execution runs a chunk on the
// processor whose cache its helper phase just warmed; the queue below
// does the same with prefixes: it hands a point to the holder whose
// prefix cache already holds (or is building) that point's prefix, and
// starts a new group on a holder only when it has nothing warm to run.
//
// A holder is whatever owns one prefix cache: a fleet worker (keyed by
// its name) or the local pool (RunDecomposed), whose lanes share one
// PrefixCache. A free holder gets, in order of preference:
//
//  1. a point of a group already built at that holder;
//  2. the first point of a group no holder has started;
//  3. a point of a group still building at that holder;
//  4. a point of the group with the most unclaimed points (a steal).
//
// Ties go to spec order: the candidate with the lowest unclaimed index
// wins. Points without a prefix need no build and count as built at
// every holder. Once a failure is recorded, no index above it is handed
// out, while lower ones still are — so the lowest failing index is
// found and reported wherever the sweep runs. Affinity is per queue,
// hence per job: a holder's prefixes from earlier jobs are unknown here.
// The holder's PrefixCache outlives the queue, though: a server's local
// Holder keeps its cache for the life of the process, so a group this
// queue ranks as unstarted may still find its prefix, and its memoized
// calls, built by an earlier job.

// PointQueue owns a decomposed sweep's dispatch order. It is safe for
// concurrent use.
type PointQueue struct {
	mu     sync.Mutex
	groups []*pointGroup // ordered by first index
	of     []*pointGroup // spec position → its group
	fail   int           // lowest recorded failure; len(of) when none
	// at holds a (holder, group) pair once the holder has been handed a
	// point of the group: true once a point of it completed there (its
	// prefix is built), false while it is building.
	at map[holding]bool
}

// holding is one holder's claim on one group.
type holding struct {
	holder string
	g      *pointGroup
}

// pointGroup is the points sharing one prefix, or the points with none.
type pointGroup struct {
	idx     []int // ascending spec positions
	next    int   // idx[next] is the first unclaimed point
	loose   bool  // no prefix: nothing to build, built at every holder
	started bool  // some holder has been handed a point
}

// NewPointQueue groups specs by their decomposition's Prefix. Positions
// in specs are the indices Next hands out.
func NewPointQueue(specs []PointSpec) *PointQueue {
	q := &PointQueue{of: make([]*pointGroup, len(specs)), fail: len(specs), at: map[holding]bool{}}
	byPrefix := map[PrefixSpec]*pointGroup{}
	var loose *pointGroup
	for i, ps := range specs {
		var g *pointGroup
		if spec, ok := prefixOf(ps); !ok {
			if loose == nil {
				loose = &pointGroup{loose: true}
				q.groups = append(q.groups, loose)
			}
			g = loose
		} else if g = byPrefix[spec]; g == nil {
			g = &pointGroup{}
			byPrefix[spec] = g
			q.groups = append(q.groups, g)
		}
		g.idx = append(g.idx, i)
		q.of[i] = g
	}
	return q
}

// prefixOf is a spec's declared prefix, ok=false when it has none.
func prefixOf(ps PointSpec) (PrefixSpec, bool) {
	d, ok := decompositions[ps.Experiment]
	if !ok || d.Prefix == nil {
		return PrefixSpec{}, false
	}
	return d.Prefix(ps)
}

// unclaimed returns g's first unclaimed index below the failure cutoff
// and how many such indices remain.
func (q *PointQueue) unclaimed(g *pointGroup) (head, left int) {
	rest := g.idx[g.next:]
	left = sort.SearchInts(rest, q.fail)
	if left == 0 {
		return 0, 0
	}
	return rest[0], left
}

// Next claims one point for holder, chosen by the rules above. ok is
// false when no point below the failure cutoff is left unclaimed.
func (q *PointQueue) Next(holder string) (i int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	// Candidates rank by (rule, steal, head), lowest first: steal is
	// minus the unclaimed count for rule 4 and 0 otherwise.
	var pick *pointGroup
	var pickRank [3]int
	for _, g := range q.groups {
		head, left := q.unclaimed(g)
		if left == 0 {
			continue
		}
		built, here := q.at[holding{holder, g}]
		rank := [3]int{4, -left, head}
		switch {
		case g.loose || built:
			rank = [3]int{1, 0, head}
		case !g.started:
			rank = [3]int{2, 0, head}
		case here:
			rank = [3]int{3, 0, head}
		}
		if pick == nil || slices.Compare(rank[:], pickRank[:]) < 0 {
			pick, pickRank = g, rank
		}
	}
	if pick == nil {
		return 0, false
	}
	i = pick.idx[pick.next]
	pick.next++
	pick.started = true
	if _, here := q.at[holding{holder, pick}]; !here {
		q.at[holding{holder, pick}] = false
	}
	return i, true
}

// Done records that point i completed at holder, so its group's prefix
// is built there.
func (q *PointQueue) Done(holder string, i int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.at[holding{holder, q.of[i]}] = true
}

// Fail records that point i failed: no index above the lowest recorded
// failure is handed out from now on.
func (q *PointQueue) Fail(i int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.fail = min(q.fail, i)
}

// Unclaimed is the number of points below the failure cutoff not yet
// handed out.
func (q *PointQueue) Unclaimed() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, g := range q.groups {
		_, left := q.unclaimed(g)
		n += left
	}
	return n
}
