package engine

import (
	"runtime"
	"testing"
)

// TestGroupBarrierMatchesSequential pins the group's determinism contract:
// running S independent cores in parallel windows produces exactly the
// per-shard event sequences a sequential run produces, because no state is
// shared inside a window.
func TestGroupBarrierMatchesSequential(t *testing.T) {
	const shards = 4
	const horizon = 1000
	const window = 50

	build := func() ([]*Core, [][]int64) {
		cores := make([]*Core, shards)
		traces := make([][]int64, shards)
		for s := 0; s < shards; s++ {
			s := s
			c := New(int64(s + 1))
			c.SetHandler(func(ev *Event) {
				if ev.Kind == KindFunc {
					ev.Call()
					return
				}
				traces[s] = append(traces[s], c.Now()*1000+int64(ev.A))
				// Reschedule with a seeded delay so each shard has its own
				// ongoing event stream.
				c.Schedule(1+int64(c.RNG().Intn(7)), ev.Kind, ev.A+1, 0)
			})
			c.Schedule(int64(s), 1, 0, 0)
			cores[s] = c
		}
		return cores, traces
	}

	parCores, parTraces := build()
	g := NewGroup(parCores)
	for barrier := int64(window); barrier <= horizon; barrier += window {
		g.RunBarrier(barrier)
		for _, c := range parCores {
			if c.Now() != barrier {
				t.Fatalf("core clock = %d at barrier %d", c.Now(), barrier)
			}
		}
	}

	seqCores, seqTraces := build()
	for _, c := range seqCores {
		c.Run(horizon)
	}

	for s := 0; s < shards; s++ {
		if len(parTraces[s]) != len(seqTraces[s]) {
			t.Fatalf("shard %d: %d events parallel vs %d sequential", s, len(parTraces[s]), len(seqTraces[s]))
		}
		for i := range parTraces[s] {
			if parTraces[s][i] != seqTraces[s][i] {
				t.Fatalf("shard %d event %d: %d vs %d", s, i, parTraces[s][i], seqTraces[s][i])
			}
		}
	}
}

func TestGroupLowWater(t *testing.T) {
	a, b := New(1), New(2)
	g := NewGroup([]*Core{a, b})
	if _, ok := g.LowWater(); ok {
		t.Fatal("empty group reports a low-water mark")
	}
	a.Schedule(30, 1, 0, 0)
	b.Schedule(10, 1, 0, 0)
	if low, ok := g.LowWater(); !ok || low != 10 {
		t.Fatalf("low water = %d,%v, want 10,true", low, ok)
	}
	if tm, ok := a.NextEventTime(); !ok || tm != 30 {
		t.Fatalf("NextEventTime = %d,%v, want 30,true", tm, ok)
	}
}

func TestPoolRecycles(t *testing.T) {
	type rec struct{ v int }
	var p Pool[rec]
	x := p.Get()
	x.v = 7
	p.Put(x)
	y := p.Get()
	if y != x {
		t.Fatal("pool did not recycle the freed record")
	}
	if z := p.Get(); z == x {
		t.Fatal("pool handed out the same record twice")
	}
}

// A window runs on the caller: it allocates nothing and no goroutine exists
// during it that did not exist before it.
func TestRunBarrierStaysOnTheCaller(t *testing.T) {
	const shards = 4
	before := runtime.NumGoroutine()
	during := before
	cores := make([]*Core, shards)
	for s := range cores {
		c := New(int64(s + 1))
		c.SetHandler(func(ev *Event) {
			if n := runtime.NumGoroutine(); n > during {
				during = n
			}
			c.Schedule(1+int64(ev.A)%5, ev.Kind, ev.A+1, 0)
		})
		for k := 0; k < 8; k++ {
			c.Schedule(int64(k), 1, int32(k), 0)
		}
		cores[s] = c
	}
	g := NewGroup(cores)
	horizon := int64(0)
	window := func() {
		horizon += 50
		if g.RunBarrier(horizon) == 0 {
			t.Fatal("the window processed no event")
		}
	}
	for k := 0; k < 10; k++ {
		window() // let the event queues reach their steady size
	}
	if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
		t.Errorf("RunBarrier allocates %.1f times a window, want 0", allocs)
	}
	if during != before {
		t.Errorf("%d goroutines during a window, %d before it", during, before)
	}
}
