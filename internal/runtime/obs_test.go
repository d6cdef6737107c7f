package runtime

import (
	"testing"
	"time"

	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/ra"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// An instrumented cluster publishes from event-loop and forwarder
// goroutines concurrently; under -race this doubles as the proof that the
// obs hot path is goroutine-safe end to end.
func TestClusterPublishesObs(t *testing.T) {
	o := obs.New(obs.Options{TraceCapacity: 1024})
	c, err := NewCluster(Config{
		N:        3,
		Seed:     11,
		NewNode:  func(id, n int) tme.Node { return ra.New(id, n) },
		LossRate: 0.2,
		DupRate:  0.2,
		NewWrapper: func(int) wrapper.Level2 {
			return wrapper.Func(wrapper.W)
		},
		Level1: wrapper.PhaseGuard{},
		Obs:    o,
	})
	if err != nil {
		t.Fatal(err)
	}
	log := collectEntries(c)
	c.Start()
	for i := 0; i < 3; i++ {
		c.Request(i)
	}
	served := map[int]bool{}
	deadline := time.Now().Add(20 * time.Second)
	for len(served) < 3 && time.Now().Before(deadline) {
		for _, e := range log.all() {
			if !served[e.ID] {
				served[e.ID] = true
				c.Release(e.ID)
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
	if h, ok := snap.Histograms["runtime_transport_delay_us"]; !ok || h.Count == 0 {
		t.Error("transport delay histogram empty")
	}
	if o.Trace.Total() == 0 {
		t.Error("no trace events emitted")
	}
}

// A cluster without Obs runs every instrument call against nil receivers.
func TestClusterNilObsSafe(t *testing.T) {
	c, err := NewCluster(Config{
		N:       2,
		Seed:    1,
		NewNode: func(id, n int) tme.Node { return ra.New(id, n) },
	})
	if err != nil {
		t.Fatal(err)
	}
	log := collectEntries(c)
	c.Start()
	c.Request(0)
	entered := waitFor(t, 5*time.Second, func() bool { return len(log.all()) > 0 })
	c.Stop()
	if !entered {
		t.Fatal("no entry without obs")
	}
}
