package obs

import (
	"fmt"
	"math"
	"sort"
)

// MetricDiff is one metric's comparison between two snapshots: the two
// values, their symmetric relative difference, and whether it sits inside
// the tolerance asked for.
type MetricDiff struct {
	// Name is the counter or gauge name (counters and gauges share one
	// namespace across the repo, so no kind marker is needed).
	Name string
	// A and B are the two snapshot values (0 for an absent counter; an
	// absent gauge is compared as 0 too — pick gate metrics that both
	// sides publish).
	A, B int64
	// Rel is |A−B| / max(|A|,|B|): 0 for equal values, 1 when one side is
	// zero and the other is not. Symmetric, so the gate does not care
	// which substrate is "truth".
	Rel float64
	// Tol is the tolerance the metric was gated with; Within is Rel ≤ Tol.
	Tol    float64
	Within bool
}

// String renders one diff row for gate output.
func (d MetricDiff) String() string {
	verdict := "ok"
	if !d.Within {
		verdict = "DIVERGED"
	}
	return fmt.Sprintf("%-34s a=%-10d b=%-10d rel=%5.1f%% tol=%5.1f%%  %s",
		d.Name, d.A, d.B, 100*d.Rel, 100*d.Tol, verdict)
}

// DiffSnapshots compares the named metrics of two snapshots under
// per-metric tolerances. tols maps metric name → allowed symmetric
// relative difference (0 demands equality, 0.25 allows 25%, …). Only the
// named metrics are compared — parity gates on semantic metrics, not on
// substrate-specific bookkeeping — and the result is sorted by name so
// gate output is deterministic. Either snapshot may be nil (treated as
// empty).
func DiffSnapshots(a, b *Snapshot, tols map[string]float64) []MetricDiff {
	if a == nil {
		a = NewSnapshot()
	}
	if b == nil {
		b = NewSnapshot()
	}
	diffs := make([]MetricDiff, 0, len(tols))
	for name, tol := range tols {
		va, vb := metricValue(a, name), metricValue(b, name)
		d := MetricDiff{Name: name, A: va, B: vb, Rel: relDiff(va, vb), Tol: tol}
		d.Within = d.Rel <= tol
		diffs = append(diffs, d)
	}
	sort.Slice(diffs, func(i, j int) bool { return diffs[i].Name < diffs[j].Name })
	return diffs
}

// AllWithin reports whether every diff is inside its tolerance.
func AllWithin(diffs []MetricDiff) bool {
	for _, d := range diffs {
		if !d.Within {
			return false
		}
	}
	return true
}

// metricValue reads name from the snapshot, preferring the counter
// namespace and falling back to gauges; absent everywhere reads as 0.
func metricValue(s *Snapshot, name string) int64 {
	if v, ok := s.Counters[name]; ok {
		return v
	}
	return s.Gauges[name]
}

// relDiff is the symmetric relative difference |a−b| / max(|a|,|b|).
func relDiff(a, b int64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(float64(a)), math.Abs(float64(b)))
	return math.Abs(float64(a)-float64(b)) / den
}
