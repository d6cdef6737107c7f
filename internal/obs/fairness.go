package obs

import (
	"slices"
	"sync"
)

// Fairness tracks per-client CS entry counts and entry latencies, from
// which the workload experiments derive their fairness columns: are all
// clients being served, or is the protocol starving the unlucky ones under
// skewed or bursty load?
//
// RecordEntry is called once per CS entry (not per message), so a mutex —
// not the registry's lock-free atomics — is an acceptable cost; the gain is
// exact per-client series from which Publish computes percentiles. All
// methods are no-ops on a nil receiver, matching the package's disabled-path
// rule.
type Fairness struct {
	mu     sync.Mutex
	counts []int64 // guarded by mu; entries per client id (grown on demand)
	lats   []int64 // guarded by mu; all entry latencies, in substrate ticks
	min    *Gauge
	max    *Gauge
	ratio  *Gauge
	p50    *Gauge
	p95    *Gauge
	p99    *Gauge
}

// NewFairness registers the fairness instruments on r (nil r yields a nil,
// no-op tracker).
func NewFairness(r *Registry) *Fairness {
	if r == nil {
		return nil
	}
	return &Fairness{
		min:   r.Gauge("fair_entries_min", "fewest CS entries by any client"),
		max:   r.Gauge("fair_entries_max", "most CS entries by any client"),
		ratio: r.Gauge("fair_entry_ratio_x1000", "max/min per-client entry ratio ×1000 (0 = a client never entered)"),
		p50:   r.Gauge("fair_latency_p50", "median request→entry latency (substrate ticks)"),
		p95:   r.Gauge("fair_latency_p95", "p95 request→entry latency (substrate ticks)"),
		p99:   r.Gauge("fair_latency_p99", "p99 request→entry latency (substrate ticks)"),
	}
}

// RecordEntry notes that client entered the CS, latency ticks after it
// requested. Negative latencies (no matching request seen) count the entry
// but not the latency.
func (f *Fairness) RecordEntry(client int, latency int64) {
	if f == nil || client < 0 {
		return
	}
	f.mu.Lock()
	if client >= len(f.counts) {
		if client < cap(f.counts) {
			f.counts = f.counts[:client+1]
		} else {
			grown := make([]int64, client+1, client+8)
			copy(grown, f.counts)
			f.counts = grown
		}
	}
	f.counts[client]++
	if latency >= 0 {
		if f.lats == nil {
			f.lats = make([]int64, 0, 128)
		}
		f.lats = append(f.lats, latency)
	}
	f.mu.Unlock()
}

// Publish computes the fairness summary over everything recorded so far and
// sets the fair_* gauges. Call once at the end of a run, before
// snapshotting; calling again after more entries refreshes the gauges.
func (f *Fairness) Publish() {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.counts) > 0 {
		min, max := f.counts[0], f.counts[0]
		for _, c := range f.counts[1:] {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		f.min.Set(min)
		f.max.Set(max)
		if min > 0 {
			f.ratio.Set(max * 1000 / min)
		} else {
			f.ratio.Set(0) // a starved client: the ratio is unbounded
		}
	}
	if len(f.lats) > 0 {
		// Sort in place: insertion order carries no meaning, and entries
		// recorded after this call are re-sorted by the next Publish.
		slices.Sort(f.lats)
		f.p50.Set(quantile(f.lats, 0.50))
		f.p95.Set(quantile(f.lats, 0.95))
		f.p99.Set(quantile(f.lats, 0.99))
	}
}

// quantile reads the q-th quantile from an ascending-sorted slice.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
