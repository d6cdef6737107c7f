package engine

import (
	"fmt"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/seeded"
)

// queueDeltas are the scheduling distances the differential tests draw
// from: same-tick ties, the 1 to 5 tick link delays, both sides of the
// window edge, whole multiples of the wheel size (same bucket, different
// lap), and the distant deadlines that live in the overflow heap.
var queueDeltas = []int64{0, 0, 1, 1, 2, 3, 5, 8, 13, 31, 62, 63, 64, 65, 127, 128, 129, 1000, 20000}

// diffQueues drives an eventQueue and a bare eventHeap with the same
// pushes and requires the same answers from both.
type diffQueues struct {
	t   testing.TB
	q   eventQueue
	ref eventHeap
	seq uint64
	now int64 // time of the last pop, the base new pushes are relative to
}

func (d *diffQueues) push(time int64) {
	d.seq++
	e := Event{Time: time, Seq: d.seq, Kind: uint8(1 + d.seq%5), A: int32(d.seq), B: int32(time)}
	d.q.push(e)
	d.ref.push(e)
	d.check()
}

// popDue pops one event from both sides if the reference's earliest is due
// by horizon, and reports whether there was one.
func (d *diffQueues) popDue(horizon int64) bool {
	d.t.Helper()
	var got Event
	ok := d.q.popDue(horizon, &got)
	wantOK := d.ref.len() > 0 && d.ref.items[0].Time <= horizon
	if ok != wantOK {
		d.t.Fatalf("popDue(%d) = %v, reference has one due: %v", horizon, ok, wantOK)
	}
	if !ok {
		return false
	}
	want, _ := d.ref.pop()
	if got.Time != want.Time || got.Seq != want.Seq || got.Kind != want.Kind || got.A != want.A || got.B != want.B {
		d.t.Fatalf("popped (t=%d seq=%d kind=%d a=%d), reference heap pops (t=%d seq=%d kind=%d a=%d)",
			got.Time, got.Seq, got.Kind, got.A, want.Time, want.Seq, want.Kind, want.A)
	}
	d.now = got.Time
	d.check()
	return true
}

func (d *diffQueues) check() {
	d.t.Helper()
	if d.q.len() != d.ref.len() {
		d.t.Fatalf("len = %d, reference %d", d.q.len(), d.ref.len())
	}
	got, ok := d.q.minTime()
	if ok != (d.ref.len() > 0) || (ok && got != d.ref.items[0].Time) {
		d.t.Fatalf("minTime = %d,%v with %d pending in the reference", got, ok, d.ref.len())
	}
}

func (d *diffQueues) drain() {
	for d.popDue(1 << 62) {
	}
	if d.q.len() != 0 || d.q.n != 0 || d.q.occ != 0 {
		d.t.Fatalf("drained queue still holds len=%d near=%d occ=%#x", d.q.len(), d.q.n, d.q.occ)
	}
}

// TestEventQueueMatchesHeap is the differential property test: over random
// interleavings of pushes and pops, eventQueue pops exactly the sequence
// the bare eventHeap pops. Pushes are mostly relative to the last popped
// time, as the core's are, with a share at arbitrary earlier times: the
// core never does that (At clamps to now), but the queue is exact on every
// input, not only the core's.
func TestEventQueueMatchesHeap(t *testing.T) {
	rng := seeded.New(26)
	for trial := 0; trial < 300; trial++ {
		d := &diffQueues{t: t}
		ops := 1 + rng.Intn(600)
		for op := 0; op < ops; op++ {
			switch r := rng.Intn(10); {
			case r < 5:
				d.push(d.now + queueDeltas[rng.Intn(len(queueDeltas))])
			case r == 5:
				d.push(rng.Int63n(d.now + 200)) // anywhere, the past included
			case r < 9:
				d.popDue(1 << 62)
			default:
				// A run to a horizon that leaves events queued.
				h := d.now + rng.Int63n(80)
				for d.popDue(h) {
				}
			}
		}
		d.drain()
	}
}

// TestEventQueueFarEntersWindow pins the case the merge exists for: an
// event pushed while it was far stays in the overflow heap, and once base
// has caught up it must still pop before a later push to the same tick,
// and after an earlier tick's near events.
func TestEventQueueFarEntersWindow(t *testing.T) {
	d := &diffQueues{t: t}
	d.push(1)   // near
	d.push(100) // far at push time: 100 >= 0+64
	d.push(101) // far
	d.popDue(1) // base -> 1; 100 is still outside [1, 65)
	d.push(60)  // near
	d.popDue(60)
	// base is 60, so tick 100 is inside the window now: these go to the
	// wheel while seq 2 at the same tick sits in the heap.
	d.push(100)
	d.push(99)
	d.push(101)
	d.drain()
}

// refCore is the pre-wheel Core reduced to what orders events: a clock, a
// seq counter and the bare heap. The core differential test holds Core to
// it.
type refCore struct {
	now int64
	seq uint64
	q   eventHeap
}

func (r *refCore) schedule(after int64, kind uint8) {
	r.seq++
	r.q.push(Event{Time: r.now + after, Seq: r.seq, Kind: kind})
}

func (r *refCore) at(t int64) {
	if t < r.now {
		t = r.now
	}
	r.seq++
	r.q.push(Event{Time: t, Seq: r.seq, Kind: KindFunc})
}

func (r *refCore) run(horizon int64, handle func(Event)) {
	for r.q.len() > 0 && r.q.items[0].Time <= horizon {
		ev, _ := r.q.pop()
		r.now = ev.Time
		handle(ev)
	}
	if r.now < horizon {
		r.now = horizon
	}
}

// TestCoreDispatchMatchesHeapCore runs the same seeded program on a Core
// and on refCore and requires the same dispatch trace. The program covers
// what the queue-level test cannot: pushes made after Run(horizon) returned
// with events still queued (the wheel's base then lags the clock), At
// times in the past (clamped to now), idle stretches longer than the
// window, and Pending after every step.
func TestCoreDispatchMatchesHeapCore(t *testing.T) {
	type rec struct {
		time int64
		seq  uint64
		kind uint8
	}
	for seed := int64(1); seed <= 40; seed++ {
		var got, want []rec
		c, ref := New(seed), &refCore{}
		rngC, rngR := seeded.New(seed), seeded.New(seed)

		// Each handled event schedules zero to two successors; the draws
		// follow dispatch order, so one misordered pop diverges the rest.
		c.SetHandler(func(ev *Event) {
			got = append(got, rec{ev.Time, ev.Seq, ev.Kind})
			if ev.Kind == KindFunc {
				ev.Call()
			}
			for k := rngC.Intn(3); k > 0 && len(got) < 3000; k-- {
				c.Schedule(queueDeltas[rngC.Intn(len(queueDeltas))], uint8(1+rngC.Intn(4)), 0, 0)
			}
		})
		handleRef := func(ev Event) {
			want = append(want, rec{ev.Time, ev.Seq, ev.Kind})
			for k := rngR.Intn(3); k > 0 && len(want) < 3000; k-- {
				ref.schedule(queueDeltas[rngR.Intn(len(queueDeltas))], uint8(1+rngR.Intn(4)))
			}
		}

		script := seeded.New(seed + 1000)
		for step := 0; step < 200; step++ {
			switch script.Intn(4) {
			case 0:
				after := queueDeltas[script.Intn(len(queueDeltas))]
				c.Schedule(after, 1, 0, 0)
				ref.schedule(after, 1)
			case 1:
				at := c.Now() - 50 + script.Int63n(150)
				c.At(at, func() {})
				ref.at(at)
			default:
				h := c.Now() + script.Int63n(300)
				c.Run(h)
				ref.run(h, handleRef)
				if c.Now() != ref.now {
					t.Fatalf("seed %d step %d: clock %d, reference %d", seed, step, c.Now(), ref.now)
				}
			}
			if c.queue.len() != ref.q.len() {
				t.Fatalf("seed %d step %d: Pending = %d, reference %d", seed, step, c.queue.len(), ref.q.len())
			}
		}
		c.Run(1 << 40)
		ref.run(1<<40, handleRef)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events dispatched, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d = %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// FuzzEventQueue is the differential test as a fuzz target, beside
// FuzzEventHeap. A program is a byte string: b%4 picks push near (0), push
// far or at the window edge (1), pop (2), or run to a nearby horizon (3);
// b/4 picks the distance.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 4, 8, 2, 2, 2})
	f.Add([]byte{0, 0, 0, 0, 2, 0, 2, 2, 2})         // same-tick ties
	f.Add([]byte{65, 160, 2, 96, 2, 2})              // a far event (t=64) the window reaches, then a near push to its tick
	f.Add([]byte{40, 80, 120, 63, 0, 4, 2, 2, 2, 2}) // pushes after a run left events queued
	f.Add([]byte{0, 2, 65, 69, 0, 2, 2, 2, 2})       // whole laps of the wheel: same bucket, later times
	f.Fuzz(func(t *testing.T, program []byte) {
		d := &diffQueues{t: t}
		for _, b := range program {
			arg := int64(b / 4)
			switch b % 4 {
			case 0:
				d.push(d.now + arg)
			case 1:
				// Around the window edge, whole laps of the wheel, then the
				// distant deadlines (20000 and up).
				switch {
				case arg < 16:
					d.push(d.now + wheelSize - 8 + arg)
				case arg < 32:
					d.push(d.now + (arg-15)*wheelSize)
				default:
					d.push(d.now + arg*625)
				}
			case 2:
				d.popDue(1 << 62)
			default:
				h := d.now + arg
				for d.popDue(h) {
				}
			}
		}
		d.drain()
	})
}

// TestCoreSteadyStateAllocatesNothing pins the scheduling path's allocation
// contract: once the wheel's slab and the overflow heap have grown to the
// run's working set, Schedule plus Run allocate nothing, near or far.
func TestCoreSteadyStateAllocatesNothing(t *testing.T) {
	c := New(1)
	c.SetHandler(func(ev *Event) {
		// One successor per event, every eighth one beyond the window.
		after := int64(1 + ev.A%5)
		if ev.A%8 == 0 {
			after = 20000
		}
		c.Schedule(after, ev.Kind, ev.A+1, ev.B)
	})
	for i := int32(0); i < 256; i++ {
		c.Schedule(int64(i%7), 1, i, 0)
	}
	c.Run(50000) // warm: slab, free list and heap reach their sizes
	horizon := c.Now()
	allocs := testing.AllocsPerRun(100, func() {
		horizon += 500
		c.Run(horizon)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Schedule+Run allocates %.1f per 500-tick window, want 0", allocs)
	}
	if c.queue.len() != 256 {
		t.Fatalf("Pending = %d, want the 256 self-rescheduling events", c.queue.len())
	}
}

// BenchmarkCoreDispatch prices one event through the core (pop, handler
// call, one Schedule) with a steady number of events pending. The handler
// reschedules at the simulator's link delays, 1 to 5 ticks, so this is the
// queue's share of engine.dispatch_ns_per_event in benchmark/.
func BenchmarkCoreDispatch(b *testing.B) {
	for _, pending := range []int{16, 1 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			c := New(1)
			left := -1 // events until Stop; off while warming
			c.SetHandler(func(ev *Event) {
				c.Schedule(int64(1+(ev.A+int32(ev.Time))%5), ev.Kind, ev.A, ev.B)
				if left--; left == 0 {
					c.Stop()
				}
			})
			for i := 0; i < pending; i++ {
				c.Schedule(int64(1+i%5), 1, int32(i), 0)
			}
			c.Run(1000) // warm: every event has moved on from its first push
			left = b.N
			b.ReportAllocs()
			b.ResetTimer()
			if n := c.Run(1 << 62); n != int64(b.N) {
				b.Fatalf("dispatched %d events, want %d", n, b.N)
			}
		})
	}
}

// len returns the number of queued events, near and far.
func (q *eventQueue) len() int { return q.n + q.far.len() }
