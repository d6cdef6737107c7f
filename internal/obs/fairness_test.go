package obs

import "testing"

func TestFairnessNilNoOp(t *testing.T) {
	var f *Fairness
	f.RecordEntry(0, 1) // must not panic
	f.Publish()
	if NewFairness(nil) != nil {
		t.Error("NewFairness(nil) should be nil")
	}
}

func TestFairnessPublish(t *testing.T) {
	o := New(Options{})
	f := o.Fairness()
	// Client 0 enters 4× with low latency, client 2 once with high; client
	// 1 never enters but is inside the id range via client 2's record.
	for i := 0; i < 4; i++ {
		f.RecordEntry(0, 10)
	}
	f.RecordEntry(2, 100)
	f.RecordEntry(2, -1) // latency unknown: counted, not sampled
	f.Publish()

	snap := o.Registry().Snapshot()
	if got := snap.Gauge("fair_entries_max", -1); got != 4 {
		t.Errorf("fair_entries_max = %d, want 4", got)
	}
	if got := snap.Gauge("fair_entries_min", -1); got != 0 {
		t.Errorf("fair_entries_min = %d, want 0 (client 1 starved)", got)
	}
	if got := snap.Gauge("fair_entry_ratio_x1000", -1); got != 0 {
		t.Errorf("fair_entry_ratio_x1000 = %d, want 0 for a starved client", got)
	}
	counts := f.counts
	if len(counts) != 3 || counts[0] != 4 || counts[1] != 0 || counts[2] != 2 {
		t.Errorf("entry counts = %v, want [4 0 2]", counts)
	}
}

func TestFairnessLatencyPercentiles(t *testing.T) {
	o := New(Options{})
	f := o.Fairness()
	// 50 fast entries, 50 slow: the median sits in the fast half, the tail
	// percentiles in the slow half (same int(q·(n−1)) convention as the
	// live harness).
	for i := 0; i < 50; i++ {
		f.RecordEntry(0, 10)
		f.RecordEntry(1, 100)
	}
	f.Publish()
	snap := o.Registry().Snapshot()
	if got := snap.Gauge("fair_latency_p50", -1); got != 10 {
		t.Errorf("fair_latency_p50 = %d, want 10", got)
	}
	if got := snap.Gauge("fair_latency_p95", -1); got != 100 {
		t.Errorf("fair_latency_p95 = %d, want 100", got)
	}
	if got := snap.Gauge("fair_latency_p99", -1); got != 100 {
		t.Errorf("fair_latency_p99 = %d, want 100", got)
	}
}

func TestFairnessRatio(t *testing.T) {
	o := New(Options{})
	f := o.Fairness()
	f.RecordEntry(0, 1)
	f.RecordEntry(0, 1)
	f.RecordEntry(0, 1)
	f.RecordEntry(1, 1)
	f.RecordEntry(1, 1)
	f.Publish()
	snap := o.Registry().Snapshot()
	if got := snap.Gauge("fair_entry_ratio_x1000", -1); got != 1500 {
		t.Errorf("fair_entry_ratio_x1000 = %d, want 1500 (3/2)", got)
	}
}
