package seeded

import (
	"hash/fnv"
	"strconv"
	"testing"
)

func TestHashIsFNV1a(t *testing.T) {
	for _, name := range []string{"", "mesh.delay", "workload/uniform/7/arrive"} {
		h := fnv.New64a()
		h.Write([]byte(name))
		if got, want := Hash(name), h.Sum64(); got != want {
			t.Errorf("Hash(%q) = %#x, want %#x", name, got, want)
		}
	}
	whole := Hash("workload/uniform/12/hold")
	parts := Extend(Extend(Hash("workload/uniform/"), strconv.AppendInt(nil, 12, 10)), "/hold")
	if parts != whole {
		t.Errorf("Extend over pieces = %#x, want %#x", parts, whole)
	}
}

func TestSameSeedSameDraws(t *testing.T) {
	a, b := New(42), New(42)
	c := New(43)
	differ := false
	for i := 0; i < 100; i++ {
		x, y, z := a.Int63(), b.Int63(), c.Int63()
		if x != y {
			t.Fatalf("draw %d: equal seeds gave %d and %d", i, x, y)
		}
		if x < 0 {
			t.Fatalf("draw %d: Int63 returned %d", i, x)
		}
		differ = differ || x != z
	}
	if !differ {
		t.Error("seeds 42 and 43 gave the same 100 draws")
	}
}

func TestReseedRestarts(t *testing.T) {
	var s Stream
	r := s.Init(7)
	first := r.Uint64()
	r.Seed(7)
	if got := r.Uint64(); got != first {
		t.Errorf("after Seed(7) the first draw is %d, want %d", got, first)
	}
}

// TestStreamByValueAllocatesNothing: an owner holding a Stream by value
// seeds and draws from it without allocating; New costs its one stream.
func TestStreamByValueAllocatesNothing(t *testing.T) {
	var owner struct{ s Stream }
	if a := testing.AllocsPerRun(100, func() { owner.s.Init(Derive(1, "x")) }); a != 0 {
		t.Errorf("Init allocates %.1f per call, want 0", a)
	}
	r := owner.s.Rand()
	if a := testing.AllocsPerRun(100, func() { _ = r.Int63n(17) + int64(r.Intn(5)) + int64(r.Float64()) }); a != 0 {
		t.Errorf("a draw allocates %.1f, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { _ = New(3) }); a != 1 {
		t.Errorf("New allocates %.1f, want 1", a)
	}
}
