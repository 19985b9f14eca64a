package experiments

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// queueSpecs registers a stand-in decomposition whose points group by
// the letter given for each index ("" = no prefix) and returns its specs.
// Nothing is simulated: the queue only reads the decomposition's Prefix.
func queueSpecs(t *testing.T, groups ...string) []PointSpec {
	t.Helper()
	name := "queue-" + t.Name()
	RegisterDecomposition(name, Decomposition{
		Prefix: func(ps PointSpec) (PrefixSpec, bool) {
			return PrefixSpec{Machine: ps.Machine}, ps.Machine != ""
		},
	})
	t.Cleanup(func() { delete(decompositions, name) })
	specs := make([]PointSpec, len(groups))
	for i, g := range groups {
		specs[i] = PointSpec{Experiment: name, Index: i, Machine: g}
	}
	return specs
}

// wantNext checks the point Next hands holder; no want means none.
func wantNext(t *testing.T, q *PointQueue, holder string, want ...int) {
	t.Helper()
	var got []int
	if i, ok := q.Next(holder); ok {
		got = []int{i}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Next(%s) = %v, want %v", holder, got, want)
	}
}

// TestPointQueueRuleOrder walks the four dispatch rules in turn: a built
// group at the holder, then an unstarted group, then a group building at
// the holder, then a steal from the group with the most unclaimed
// points, with ties in spec order.
func TestPointQueueRuleOrder(t *testing.T) {
	//                    0    1    2    3    4    5    6    7    8    9
	q := NewPointQueue(queueSpecs(t, "A", "B", "A", "C", "A", "B", "A", "C", "A", "D"))
	wantNext(t, q, "h1", 0) // rule 2: A is the first unstarted group
	wantNext(t, q, "h2", 1) // rule 2: B
	wantNext(t, q, "h1", 3) // rule 2 beats rule 3: start C before waiting on A
	wantNext(t, q, "h3", 9) // rule 2: D, though A's head is lower
	// h3 holds D, which is exhausted; nothing is unstarted, built or
	// building at h3, so it steals from A (unclaimed 2, 4, 6, 8).
	wantNext(t, q, "h3", 2)
	q.Done("h1", 0)
	wantNext(t, q, "h1", 4) // rule 1: A is built at h1
	q.Done("h1", 3)
	wantNext(t, q, "h1", 6) // rule 1, both A and C built: lowest head wins
	wantNext(t, q, "h2", 5) // rule 3: B is still building at h2
	// h4 holds nothing: A (8) and C (7) each have one unclaimed point, so
	// the steal tie goes to spec order.
	wantNext(t, q, "h4", 7)
	wantNext(t, q, "h4", 8)
	wantNext(t, q, "h1")
	if n := q.Unclaimed(); n != 0 {
		t.Fatalf("Unclaimed = %d after the queue drained", n)
	}
}

// TestPointQueueStealsLargestGroup pins rule 4's choice: the group with
// the most unclaimed points, not the lowest index.
func TestPointQueueStealsLargestGroup(t *testing.T) {
	q := NewPointQueue(queueSpecs(t, "A", "B", "B", "B", "A"))
	wantNext(t, q, "h1", 0)
	wantNext(t, q, "h1", 1)
	wantNext(t, q, "h2", 2) // B has 2 unclaimed, A has 1
}

// TestPointQueueLoosePoints pins that points without a prefix are always
// eligible: they need no build, so they rank as built at every holder,
// including one that has never run anything.
func TestPointQueueLoosePoints(t *testing.T) {
	q := NewPointQueue(queueSpecs(t, "A", "", "A", "", ""))
	wantNext(t, q, "h1", 1) // loose beats starting A
	wantNext(t, q, "h1", 3)
	wantNext(t, q, "h2", 4)
	wantNext(t, q, "h2", 0)
	wantNext(t, q, "h2", 2)

	all := NewPointQueue(queueSpecs(t, "", "", "", ""))
	wantNext(t, all, "h1", 0) // a sweep without prefixes runs in spec order
	wantNext(t, all, "h2", 1)
	wantNext(t, all, "h2", 2)
	wantNext(t, all, "h1", 3)
}

// TestPointQueueFailureCutoff pins the lowest-index error rule's half in
// the queue: after a failure, no higher index is handed out, while the
// lower ones still are, in every group.
func TestPointQueueFailureCutoff(t *testing.T) {
	q := NewPointQueue(queueSpecs(t, "A", "B", "A", "B", "A", "B", "A", "B"))
	wantNext(t, q, "h1", 0)
	wantNext(t, q, "h2", 1)
	q.Fail(5)
	q.Fail(6) // a higher failure never raises the cutoff
	if n := q.Unclaimed(); n != 3 {
		t.Fatalf("Unclaimed = %d, want 3 (indices 2, 3, 4)", n)
	}
	q.Done("h1", 0)
	wantNext(t, q, "h1", 2) // rule 1: A is built at h1
	wantNext(t, q, "h1", 4)
	wantNext(t, q, "h1", 3) // a steal from B, below the cutoff
	wantNext(t, q, "h2")
	q.Fail(0) // a lower failure lowers the cutoff
	if n := q.Unclaimed(); n != 0 {
		t.Fatalf("Unclaimed = %d, want 0", n)
	}
}

// TestPointQueueConcurrent drains one queue from several goroutines
// acting as four holders, as a fleet's dispatchers and a pool's lanes
// do: every index is handed out exactly once.
func TestPointQueueConcurrent(t *testing.T) {
	var groups []string
	for i := 0; i < 200; i++ {
		groups = append(groups, []string{"A", "B", "C", "", "D"}[i*7%5])
	}
	specs := queueSpecs(t, groups...)
	q := NewPointQueue(specs)
	var mu sync.Mutex
	handed := make([]int, len(specs))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			holder := fmt.Sprintf("h%d", g%4)
			for {
				i, ok := q.Next(holder)
				if !ok {
					return
				}
				mu.Lock()
				handed[i]++
				mu.Unlock()
				q.Done(holder, i)
			}
		}(g)
	}
	wg.Wait()
	for i, n := range handed {
		if n != 1 {
			t.Fatalf("index %d handed out %d times", i, n)
		}
	}
}
