package obs

import (
	"strings"
	"testing"
)

func TestDiffSnapshots(t *testing.T) {
	a, b := NewSnapshot(), NewSnapshot()
	a.Counters["entries"] = 100
	b.Counters["entries"] = 110 // 10/110 ≈ 9.1%
	a.Counters["violations"] = 0
	b.Counters["violations"] = 0
	a.Gauges["conv_ticks"] = 40
	b.Gauges["conv_ticks"] = 80 // 50%

	diffs := DiffSnapshots(a, b, map[string]float64{
		"entries":    0.25,
		"violations": 0,
		"conv_ticks": 0.25,
	})
	if len(diffs) != 3 {
		t.Fatalf("got %d diffs, want 3", len(diffs))
	}
	// Sorted by name: conv_ticks, entries, violations.
	if diffs[0].Name != "conv_ticks" || diffs[1].Name != "entries" || diffs[2].Name != "violations" {
		t.Fatalf("unexpected order: %v %v %v", diffs[0].Name, diffs[1].Name, diffs[2].Name)
	}
	if diffs[0].Within {
		t.Errorf("conv_ticks 40 vs 80 should exceed 25%%: %+v", diffs[0])
	}
	if !diffs[1].Within {
		t.Errorf("entries 100 vs 110 should be within 25%%: %+v", diffs[1])
	}
	if !diffs[2].Within || diffs[2].Rel != 0 {
		t.Errorf("equal zeros should diff 0 within tol 0: %+v", diffs[2])
	}
	if AllWithin(diffs) {
		t.Error("AllWithin should fail with a diverged metric")
	}
	if AllWithin(diffs[1:]) != true {
		t.Error("AllWithin should pass on the conforming tail")
	}
	if out := diffs[0].String() + diffs[1].String(); !strings.Contains(out, "DIVERGED") || !strings.Contains(out, "entries") {
		t.Errorf("formatted diffs missing verdicts:\n%s", out)
	}
}

func TestDiffSnapshotsEdges(t *testing.T) {
	// Nil snapshots compare as empty.
	diffs := DiffSnapshots(nil, nil, map[string]float64{"x": 0})
	if len(diffs) != 1 || !diffs[0].Within {
		t.Errorf("nil vs nil should agree: %+v", diffs)
	}
	// One-sided value is a 100% divergence.
	a := NewSnapshot()
	a.Counters["x"] = 7
	diffs = DiffSnapshots(a, nil, map[string]float64{"x": 0.99})
	if diffs[0].Rel != 1 || diffs[0].Within {
		t.Errorf("7 vs absent should be rel=1 diverged: %+v", diffs[0])
	}
	// Gauge fallback: metric present only in the gauge namespace.
	g1, g2 := NewSnapshot(), NewSnapshot()
	g1.Gauges["wait"] = 200
	g2.Gauges["wait"] = 210
	diffs = DiffSnapshots(g1, g2, map[string]float64{"wait": 0.1})
	if !diffs[0].Within {
		t.Errorf("gauge wait 200 vs 210 should be within 10%%: %+v", diffs[0])
	}
	// Counter namespace wins over a same-named gauge.
	c := NewSnapshot()
	c.Counters["dual"] = 5
	c.Gauges["dual"] = 999
	if v := metricValue(c, "dual"); v != 5 {
		t.Errorf("metricValue prefers counters: got %d", v)
	}
}
