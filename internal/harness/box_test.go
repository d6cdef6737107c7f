package harness

import "testing"

// TestBoxReadsProcStat parses two stub /proc/stat snapshots: the steal
// share is stolen ticks over all ticks between them, guest columns are not
// counted twice, and a snapshot without a full cpu line reads unknown.
func TestBoxReadsProcStat(t *testing.T) {
	a := []byte("cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 50 0 25 400 5 0 2 18 0 0\nintr 1\n")
	b := []byte("cpu  160 0 70 900 10 0 5 55 9 0\ncpu0 80 0 35 450 5 0 2 28 0 0\nintr 2\n")
	var x, y box
	var ok bool
	x.total, x.steal, ok = parseProcStat(a)
	if !ok || x.total != 1000 || x.steal != 35 {
		t.Fatalf("first snapshot: total %d steal %d ok %v; want 1000, 35, true", x.total, x.steal, ok)
	}
	y.total, y.steal, _ = parseProcStat(b)
	if got := x.stealPct(y); got != 10 {
		t.Errorf("steal share = %v%%, want 10%% (20 of 200 ticks)", got)
	}
	if got := y.stealPct(x); got != -1 {
		t.Errorf("steal share over no elapsed tick = %v, want -1", got)
	}
	if _, _, ok := parseProcStat([]byte("cpu  1 2 3\n")); ok {
		t.Error("a cpu line without a steal column parsed")
	}
	var none box
	if got := none.stealPct(y); got != -1 {
		t.Errorf("steal share without a first snapshot = %v, want -1 (unknown, never 0)", got)
	}
	if got := (box{cpu: -1}).cpuMS(box{cpu: 5e6}); got != -1 {
		t.Errorf("CPU time with an unknown end = %d, want -1", got)
	}
}
