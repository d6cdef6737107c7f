package sim

import (
	"slices"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/fault"
	"github.com/graybox-stabilization/graybox/internal/seeded"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

func specEqual(a, b *tme.SpecState) bool {
	return a.ID == b.ID && a.Phase == b.Phase && a.REQ == b.REQ && a.TS == b.TS && a.HasTS == b.HasTS &&
		slices.Equal(a.Local, b.Local) && slices.Equal(a.Received, b.Received)
}

// TestMovedSetMarksEveryWrite holds the moved set to what actually moved.
// An observer drains it after every event and diffs every process's
// snapshot against the one from the previous event: a process that changed
// must be in the set, unless the set reads "all". Under-marking is a missed
// verdict (the monitors judge only what the set names); over-marking costs
// only time, so it is allowed.
//
// The wrapped, level-1-guarded RA and Lamport runs take fault.DefaultMix
// bursts in At closures (the set reads "all" after them) and, from the
// observer, between events, as an injector outside a closure would: those
// must be marked by the fault surface itself. The observer also forges
// invalid phases, which only the level-1 repair at the process's next
// delivery or fault closure undoes (the forgery is the test's own write, so it is taken into
// the previous snapshot). Removing the dirtyNode call in FaultPerturb, or
// reporting Wrote false from the wrapped process's Deliver, fails it.
// About 0.1 s.
func TestMovedSetMarksEveryWrite(t *testing.T) {
	const n = 4
	for _, algo := range []struct {
		name    string
		newNode func(id, n int) tme.Node
	}{{"ra", raFactory}, {"lamport", lamportFactory}} {
		for seed := int64(1); seed <= 30; seed++ {
			s := New(Config{N: n, Seed: seed, NewNode: algo.newNode, Workload: true, MaxRequests: 20,
				NewWrapper: func(int) wrapper.Level2 { return wrapper.NewTimed(5) },
				Level1:     wrapper.PhaseGuard{}})
			in := fault.NewInjector(seed+500, fault.DefaultMix)
			in.Schedule(s, []int64{150, 400}, 6)
			rng := seeded.New(seed + 900)
			prev, cur := make([]tme.SpecState, n), make([]tme.SpecState, n)
			var ids []int
			events, marked := 0, 0
			s.SetObserver(func(s *Sim) {
				events++
				var all bool
				ids, all = s.Moved(ids[:0])
				if !slices.IsSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
					t.Fatalf("%s seed %d: moved set %v is not ascending and duplicate-free", algo.name, seed, ids)
				}
				for i := range cur {
					tme.SnapshotInto(s.Node(i), &cur[i])
					if all || specEqual(&prev[i], &cur[i]) {
						continue
					}
					if !slices.Contains(ids, i) {
						t.Fatalf("%s seed %d, event %d at t=%d: process %d changed (%+v -> %+v) but the moved set is %v",
							algo.name, seed, events, s.Now(), i, prev[i], cur[i], ids)
					}
					marked++
				}
				prev, cur = cur, prev
				if rng.Intn(8) == 0 {
					in.Burst(s, 1+rng.Intn(3))
				}
				if rng.Intn(12) == 0 {
					i := rng.Intn(n)
					s.Node(i).(tme.Corruptible).Corrupt(tme.Corruption{Phase: tme.Phase(7)})
					tme.SnapshotInto(s.Node(i), &prev[i])
				}
			})
			s.Run(20000)
			if events < 100 || marked < 100 {
				t.Fatalf("%s seed %d: %d events, %d changed processes checked: the run did not exercise the set",
					algo.name, seed, events, marked)
			}
		}
	}
}

// TestMovedDrainsOnce pins Moved's contract: "all" on Run entry and after
// an At closure, then each marked process once, in ascending order, and
// nothing on a second drain.
func TestMovedDrainsOnce(t *testing.T) {
	s := New(Config{N: 70, Seed: 1, NewNode: raFactory})
	s.Run(1)
	ids, all := s.Moved(nil)
	if !all || len(ids) != 70 || ids[69] != 69 {
		t.Fatalf("after Run entry: Moved = %v, %v; want all 70", ids, all)
	}
	for _, i := range []int{66, 3, 66, 0, 64} {
		s.dirtyNode(i)
	}
	if ids, all = s.Moved(ids[:0]); all || !slices.Equal(ids, []int{0, 3, 64, 66}) {
		t.Fatalf("Moved = %v, %v; want [0 3 64 66]", ids, all)
	}
	if ids, all = s.Moved(ids[:0]); all || len(ids) != 0 {
		t.Fatalf("second drain = %v, %v; want nothing", ids, all)
	}
	s.At(5, func(*Sim) {})
	s.Core().Run(10)
	if ids, all = s.Moved(ids[:0]); !all || len(ids) != 70 {
		t.Fatalf("after an At closure: Moved = %v, %v; want all 70", ids, all)
	}
}
