package engine

import (
	"sort"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/seeded"
)

// drain pops every event and returns the (time, seq) sequence observed.
func drain(h *eventHeap) [][2]int64 {
	var out [][2]int64
	for {
		e, ok := h.pop()
		if !ok {
			return out
		}
		out = append(out, [2]int64{e.Time, int64(e.Seq)})
	}
}

// TestEventHeapProperty drives the heap with random interleavings of pushes
// and pops and checks every pop against a sort-based oracle: events come out
// in strict (time, seq) order, and exactly the pushed multiset comes out.
func TestEventHeapProperty(t *testing.T) {
	rng := seeded.New(42)
	for trial := 0; trial < 200; trial++ {
		var h eventHeap
		var oracle [][2]int64 // pending (time, seq), kept unsorted
		var popped [][2]int64
		seq := uint64(0)
		ops := 1 + rng.Intn(400)
		for op := 0; op < ops; op++ {
			if rng.Intn(3) > 0 || len(oracle) == 0 {
				// Push. Random times (with collisions likely); seq is
				// strictly increasing like the engine's allocator.
				e := Event{Time: int64(rng.Intn(50)), Seq: seq, Kind: 2}
				seq++
				h.push(e)
				oracle = append(oracle, [2]int64{e.Time, int64(e.Seq)})
			} else {
				e, ok := h.pop()
				if !ok {
					t.Fatalf("trial %d: pop failed with %d pending", trial, len(oracle))
				}
				got := [2]int64{e.Time, int64(e.Seq)}
				popped = append(popped, got)
				// The pop must return the minimum of everything pending —
				// the sort-based oracle's head.
				minIdx := 0
				for i, o := range oracle {
					m := oracle[minIdx]
					if o[0] < m[0] || (o[0] == m[0] && o[1] < m[1]) {
						minIdx = i
					}
				}
				if oracle[minIdx] != got {
					t.Fatalf("trial %d: popped %v, oracle min %v", trial, got, oracle[minIdx])
				}
				oracle = append(oracle[:minIdx], oracle[minIdx+1:]...)
			}
		}
		popped = append(popped, drain(&h)...)

		if len(popped) != int(seq) {
			t.Fatalf("trial %d: popped %d events, pushed %d", trial, len(popped), seq)
		}
		seen := make(map[[2]int64]bool, len(popped))
		for _, p := range popped {
			if seen[p] {
				t.Fatalf("trial %d: duplicate pop %v", trial, p)
			}
			seen[p] = true
		}
		for s := uint64(0); s < seq; s++ {
			found := false
			for _, p := range popped {
				if p[1] == int64(s) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: seq %d pushed but never popped", trial, s)
			}
		}
	}
}

// TestEventHeapOrderMatchesSortOracle pushes a random batch, then drains it
// fully and compares against sorting the batch by (time, seq).
func TestEventHeapOrderMatchesSortOracle(t *testing.T) {
	rng := seeded.New(7)
	for trial := 0; trial < 100; trial++ {
		var h eventHeap
		n := rng.Intn(300)
		want := make([][2]int64, 0, n)
		for i := 0; i < n; i++ {
			e := Event{Time: int64(rng.Intn(20)), Seq: uint64(i)}
			h.push(e)
			want = append(want, [2]int64{e.Time, int64(e.Seq)})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i][0] != want[j][0] {
				return want[i][0] < want[j][0]
			}
			return want[i][1] < want[j][1]
		})
		got := drain(&h)
		if len(got) != len(want) {
			t.Fatalf("trial %d: drained %d, pushed %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: position %d = %v, oracle %v", trial, i, got[i], want[i])
			}
		}
	}
}

// FuzzEventHeap feeds arbitrary byte strings as (op, time) programs: even
// bytes push an event with the next seq, odd bytes pop and assert the
// (time, seq) order invariant against all previously pending events.
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{0, 2, 4, 1, 1, 6, 3, 1})
	f.Add([]byte{1})
	f.Add([]byte{0, 0, 0, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, program []byte) {
		var h eventHeap
		pending := map[[2]int64]bool{}
		seq := uint64(0)
		var lastPop *[2]int64
		for _, b := range program {
			if b%2 == 0 {
				e := Event{Time: int64(b / 2), Seq: seq}
				seq++
				h.push(e)
				pending[[2]int64{e.Time, int64(e.Seq)}] = true
				lastPop = nil // a push may introduce a smaller key
			} else {
				e, ok := h.pop()
				if !ok {
					if len(pending) != 0 {
						t.Fatalf("pop failed with %d pending", len(pending))
					}
					continue
				}
				key := [2]int64{e.Time, int64(e.Seq)}
				if !pending[key] {
					t.Fatalf("popped %v which was not pending", key)
				}
				delete(pending, key)
				// Must be the minimum of everything still pending.
				for p := range pending {
					if p[0] < key[0] || (p[0] == key[0] && p[1] < key[1]) {
						t.Fatalf("popped %v before smaller pending %v", key, p)
					}
				}
				if lastPop != nil && (key[0] < lastPop[0] ||
					(key[0] == lastPop[0] && key[1] < lastPop[1])) {
					t.Fatalf("pop order regressed: %v after %v", key, *lastPop)
				}
				lastPop = &key
			}
		}
		if h.len() != len(pending) {
			t.Fatalf("heap len %d, pending %d", h.len(), len(pending))
		}
	})
}
