package sim

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// csCycleAllocs measures one full CS cycle of process 0 on a 5-process RA
// system built from cfg: request, four REQ deliveries, four replies, entry,
// release.
func csCycleAllocs(t *testing.T, cfg Config) float64 {
	t.Helper()
	s := New(cfg)
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
	return allocs
}

// TestInstrumentedCycleAllocatesLikeBare: a CS cycle allocates nothing,
// bare or with observability, a level-2 wrapper armed on every request and
// a level-1 wrapper. The bare cycle's fan-outs are written into buffers the
// nodes own (tme.Node's contract). The Timed wrapper's δ exceeds every
// wait, so no deadline falls due: the fault-free cycles evaluate W' zero
// times, which is the armed wrapper's whole promise (a firing one writes
// into its own buffer, wrapper.TestTimedFiringAllocatesNothing).
func TestInstrumentedCycleAllocatesLikeBare(t *testing.T) {
	bare := csCycleAllocs(t, Config{N: 5, Seed: 1, NewNode: raFactory})
	o := obs.New(obs.Options{TraceCapacity: 256})
	full := csCycleAllocs(t, Config{
		N: 5, Seed: 1, NewNode: raFactory, Obs: o,
		NewWrapper: func(int) wrapper.Level2 { return wrapper.NewTimed(1 << 20) },
		Level1:     wrapper.PhaseGuard{},
	})
	if bare != 0 {
		t.Errorf("a bare CS cycle allocates %.0f times, want 0", bare)
	}
	if full != bare {
		t.Errorf("a CS cycle allocates %.0f times instrumented and wrapped, %.0f bare", full, bare)
	}
	if evals := o.Registry().Snapshot().Counter("wrapper_evals_total"); evals != 0 {
		t.Fatalf("102 fault-free cycles evaluated W' %d times, want 0", evals)
	}
}
