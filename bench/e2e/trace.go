package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the harness around the call; nothing inside the program is
// instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Job    string `json:"job,omitempty"`
	Point  int    `json:"point"` // -1 for spans outside a sweep point
	Lane   int    `json:"lane"`  // goroutine the call ran on; probeLane for probes
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Span names that group calls rather than time a layer, and the one that
// only waits. Coverage and attribution count every other name.
const (
	spanRep    = "rep"
	spanJob    = "job"
	spanPoints = "points"
	spanProbe  = "probe"
	spanAwait  = "server.Await"
)

func isLayer(name string) bool {
	switch name {
	case spanRep, spanJob, spanPoints, spanProbe, spanAwait:
		return false
	}
	return true
}

const probeLane = -1

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(parent int, name, job string, point, lane int) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: now, Job: job, Point: point, Lane: lane})
	return len(t.spans)
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return t.spans[id-1].dur()
}

// do times f as one span.
func (t *tracer) do(parent int, name, job string, point, lane int, f func()) time.Duration {
	id := t.begin(parent, name, job, point, lane)
	f()
	return t.end(id)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// byName returns the durations of every span with the name.
func byName(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// covered is the length of the union of [start, end) intervals clipped to
// [lo, hi).
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, k int) bool { return iv[i][0] < iv[k][0] })
	var total, cur int64 = 0, lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// attributedShares returns, per rep span, the share of its wall time
// during which at least one layer call was running.
func attributedShares(spans []span) []float64 {
	var out []float64
	for _, rep := range spans {
		if rep.Name != spanRep {
			continue
		}
		var iv [][2]int64
		for _, s := range spans {
			if isLayer(s.Name) && s.Lane != probeLane && s.Start < rep.End && s.End > rep.Start {
				iv = append(iv, [2]int64{s.Start, s.End})
			}
		}
		out = append(out, float64(covered(iv, rep.Start, rep.End))/float64(rep.End-rep.Start))
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover. Spans on parallel lanes each count their own
// time, so the total is host busy time, not wall time.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - time.Duration(covered(children[s.ID], s.Start, s.End))
	}
	return out
}

// printSelfTimes writes the per-layer self-time table; share is of the
// summed self time of layer spans (grouping and waiting spans have none).
func printSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	calls := map[string]int{}
	var total time.Duration
	for _, s := range spans {
		calls[s.Name]++
	}
	names := make([]string, 0, len(self))
	for n, d := range self {
		names = append(names, n)
		if isLayer(n) {
			total += d
		}
	}
	sort.Slice(names, func(i, k int) bool { return self[names[i]] > self[names[k]] })
	fmt.Fprintf(w, "  %-36s %7s %12s %7s\n", "span", "calls", "self_ms", "share")
	for _, n := range names {
		share := "-"
		if isLayer(n) {
			share = fmt.Sprintf("%.1f%%", 100*float64(self[n])/float64(total))
		}
		fmt.Fprintf(w, "  %-36s %7d %12.3f %7s\n", n, calls[n], millis(self[n]), share)
	}
}

func writeSpans(file, workload string, spans []span) error {
	b, err := json.Marshal(map[string]interface{}{"workload": workload, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(file, b, 0o644)
}
