package runtime

import (
	"testing"
	"time"

	"github.com/graybox-stabilization/graybox/internal/fault"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/ra"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// An instrumented cluster publishes from the timer callbacks, the chaos
// proxy's scheduler and the test's fault injector concurrently; under
// -race this doubles as the proof that the obs hot path is goroutine-safe
// end to end.
func TestClusterPublishesObs(t *testing.T) {
	const bursts, perBurst = 2, 3
	o := obs.New(obs.Options{TraceCapacity: 1024})
	c, chaos := inProcess(t, Config{
		N:       3,
		NewNode: func(id, n int) tme.Node { return ra.New(id, n) },
		NewWrapper: func(int) wrapper.Level2 {
			return wrapper.Func(wrapper.W)
		},
		Level1: wrapper.PhaseGuard{},
		Obs:    o,
	}, 500*time.Microsecond, 3*time.Millisecond)
	log := collectEntries(c)
	c.Start()
	in := fault.NewInjector(11, fault.DefaultMix)
	for i := 0; i < 3; i++ {
		c.RequestShard(0, i)
	}
	for b := 0; b < bursts; b++ {
		in.Burst(chaos, perBurst)
	}
	served := map[int]bool{}
	deadline := time.Now().Add(20 * time.Second)
	for len(served) < 3 && time.Now().Before(deadline) {
		for _, e := range log.all() {
			if !served[e.ID] {
				served[e.ID] = true
				c.ReleaseShard(0, e.ID)
			}
		}
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	if len(served) != 3 {
		t.Fatalf("served %v, want all of 0..2", served)
	}

	snap := o.Reg.Snapshot()
	if got, want := snap.Counter("runtime_entries_total"), int64(len(log.all())); got != want {
		t.Errorf("runtime_entries_total = %d, want %d", got, want)
	}
	if snap.Counter("runtime_msgs_sent_total") == 0 {
		t.Error("no sent messages recorded")
	}
	if snap.Counter("runtime_msgs_delivered_total") == 0 {
		t.Error("no delivered messages recorded")
	}
	if snap.Counter("wrapper_evals_total") == 0 {
		t.Error("no wrapper evaluations recorded")
	}
	if snap.Counter("chaos_msgs_held_total") == 0 || snap.Counter("chaos_msgs_released_total") == 0 {
		t.Error("no messages held or released by the chaos proxy")
	}
	if got := snap.Counter("fault_injected_total"); got != bursts*perBurst {
		t.Errorf("fault_injected_total = %d, want %d", got, bursts*perBurst)
	}
	if o.Trace.Total() == 0 {
		t.Error("no trace events emitted")
	}
}

// A cluster without Obs runs every instrument call against nil receivers.
func TestClusterNilObsSafe(t *testing.T) {
	c, _ := inProcess(t, Config{
		N:       2,
		NewNode: func(id, n int) tme.Node { return ra.New(id, n) },
	}, bareHold, bareHold)
	log := collectEntries(c)
	c.Start()
	c.RequestShard(0, 0)
	entered := waitFor(t, 5*time.Second, func() bool { return len(log.all()) > 0 })
	c.Stop()
	if !entered {
		t.Fatal("no entry without obs")
	}
}
