package server

import (
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// TestNewJobCoreRejectsEmptyMetricNames: a job counter without a name
// is refused when the core is built, not by a panic in the metrics
// registry at the first Submit. Recovered alone may be empty.
func TestNewJobCoreRejectsEmptyMetricNames(t *testing.T) {
	full := JobMetrics{Submitted: mJobsSubmitted, Completed: mJobsCompleted, Failed: mJobsFailed,
		CacheHits: mJobsCacheHits, Rejected: mJobsRejected}
	build := func(n JobMetrics) error {
		_, err := NewJobCore(Daemon{
			IDPrefix: "z", Experiments: experiments.Registry(), Metrics: metrics.NewSynced(), Names: n,
		})
		return err
	}
	if err := build(full); err != nil {
		t.Fatalf("complete names refused: %v", err)
	}
	for field, blank := range map[string]func(*JobMetrics){
		"Submitted": func(n *JobMetrics) { n.Submitted = "" },
		"Completed": func(n *JobMetrics) { n.Completed = "" },
		"Failed":    func(n *JobMetrics) { n.Failed = "" },
		"CacheHits": func(n *JobMetrics) { n.CacheHits = "" },
		"Rejected":  func(n *JobMetrics) { n.Rejected = "" },
	} {
		n := full
		blank(&n)
		if err := build(n); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("empty %s: NewJobCore error %v, want one naming the field", field, err)
		}
	}
	if err := build(JobMetrics{}); err == nil {
		t.Error("NewJobCore accepted a daemon without job metric names")
	}
}
