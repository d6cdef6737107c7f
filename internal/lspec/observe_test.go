package lspec

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/sim"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// TestQuiescentObservationAllocatesNothing drives AsObserver directly on a
// quiescent wrapped simulation (every process thinking, no message in
// flight), in which no process changed between observations. A quiescent
// simulation has no events at all, since W' is armed only while a process
// is hungry, so the observer is called by hand, one virtual tick apart (the
// observer looks at most once per instant). Neither the simulator nor the
// observer may allocate.
func TestQuiescentObservationAllocatesNothing(t *testing.T) {
	s := sim.New(sim.Config{N: 5, Seed: 1, NewNode: raFactory,
		NewWrapper: func(int) wrapper.Level2 { return wrapper.NewTimed(5) }})
	m := New(5)
	observe := m.AsObserver()
	s.Run(10)
	if at, ok := s.Core().NextEventTime(); ok {
		t.Fatalf("a quiescent wrapped simulation has an event pending at t=%d, want none", at)
	}
	observe(s) // the first observation reads every process
	before := m.obs
	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() {
		s.Core().Run(s.Now() + 1) // an empty queue: only the clock moves
		observe(s)
	})
	if allocs != 0 {
		t.Errorf("a quiescent observation allocates %.0f times, want 0", allocs)
	}
	if got := m.obs - before; got < runs {
		t.Fatalf("%d observations over %d calls: the calls were not observed", got, runs)
	}
	if !m.Clean() {
		t.Errorf("idle run not clean: %v", m.Violations())
	}
}

// csCycleAllocs measures one full CS cycle of process 0 on a 5-process RA
// system (request, four REQ deliveries, four replies, entry, release), with
// or without the monitors observing. Every observed event of the cycle
// changed exactly one process.
func csCycleAllocs(t *testing.T, observed bool) float64 {
	t.Helper()
	s := sim.New(sim.Config{N: 5, Seed: 1, NewNode: raFactory})
	m := New(5)
	if observed {
		s.SetObserver(m.AsObserver())
	}
	s.Run(1)
	cycle := func() {
		s.Request(0)
		s.Core().Run(s.Now() + 20)
		s.Release(0)
		s.Core().Run(s.Now() + 20)
	}
	cycle() // grow the channel and event buffers once
	allocs := testing.AllocsPerRun(100, cycle)
	if got := len(s.Metrics().Entries); got != 102 { // warm-up + AllocsPerRun's own + 100
		t.Fatalf("%d entries over 102 cycles", got)
	}
	if observed && (m.obs < 102*9 || !m.Clean()) {
		t.Fatalf("observed %d states, clean=%v: the cycle was not monitored", m.obs, m.Clean())
	}
	return allocs
}

// TestOneProcessChangedObservationAllocatesNothing requires that observing
// adds no allocation to a CS cycle. This is the test that catches a
// snapshot escaping to the heap on its way into the suite (for instance by
// handing a by-value generic a pointer to it).
func TestOneProcessChangedObservationAllocatesNothing(t *testing.T) {
	bare, observed := csCycleAllocs(t, false), csCycleAllocs(t, true)
	if observed != bare {
		t.Errorf("a CS cycle allocates %.0f times observed, %.0f bare: the observer allocates", observed, bare)
	}
}

// BenchmarkMonitorObserve prices one observation of a 5-process state by
// what the observer was told changed: nothing, one process, everything.
func BenchmarkMonitorObserve(b *testing.B) {
	s := sim.New(sim.Config{N: 5, Seed: 1, NewNode: raFactory})
	g := s.Snapshot()
	for _, bc := range []struct {
		name    string
		changed []bool
	}{
		{"quiescent", make([]bool, 5)},
		{"one-process-changed", []bool{false, false, true, false, false}},
		{"all-changed", []bool{true, true, true, true, true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := New(5)
			m.Observe(g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.observe(g, bc.changed)
			}
		})
	}
}
