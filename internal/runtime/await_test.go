package runtime

import (
	goruntime "runtime"
	"testing"
	"time"

	"github.com/graybox-stabilization/graybox/internal/ra"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wire"
)

func raCluster(t *testing.T, n int) (*Cluster, *wire.Chaos) {
	t.Helper()
	return inProcess(t, Config{
		N:       n,
		NewNode: func(id, nn int) tme.Node { return ra.New(id, nn) },
	}, bareHold, bareHold)
}

// watchdog returns a stop channel that closes after ten seconds, so a wait
// the test expects to be satisfied fails the test instead of hanging it.
func watchdog(t *testing.T) <-chan struct{} {
	t.Helper()
	stop := make(chan struct{})
	timer := time.AfterFunc(10*time.Second, func() { close(stop) })
	t.Cleanup(func() { timer.Stop() })
	return stop
}

// The wait returns when the protocol grants the entry: replies arrive over
// the transport, and the delivery that completes them moves the phase.
func TestAwaitPhaseChangeReturnsOnEntry(t *testing.T) {
	c, _ := raCluster(t, 3)
	c.Start()
	stop := watchdog(t)
	for round := 0; round < 20; round++ {
		c.RequestShard(0, 0)
		if ph, ok := c.AwaitPhaseChangeShard(stop, 0, 0, tme.Hungry); !ok || ph != tme.Eating {
			t.Fatalf("round %d: wait from Hungry = (%v, %v), want (Eating, true)", round, ph, ok)
		}
		c.ReleaseShard(0, 0)
		if ph, ok := c.AwaitPhaseChangeShard(stop, 0, 0, tme.Eating); !ok || ph != tme.Thinking {
			t.Fatalf("round %d: wait from Eating = (%v, %v), want (Thinking, true)", round, ph, ok)
		}
	}
}

// awaitResult is what a waiter goroutine reports back.
type awaitResult struct {
	phase tme.Phase
	ok    bool
}

func awaitAsync(c *Cluster, stop <-chan struct{}, id int, from tme.Phase) <-chan awaitResult {
	done := make(chan awaitResult, 1)
	go func() {
		ph, ok := c.AwaitPhaseChangeShard(stop, 0, id, from)
		done <- awaitResult{ph, ok}
	}()
	return done
}

func expectResult(t *testing.T, done <-chan awaitResult, want awaitResult) {
	t.Helper()
	select {
	case got := <-done:
		if got != want {
			t.Fatalf("wait = %+v, want %+v", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("wait did not return")
	}
}

// An unsatisfied wait ends when the caller's stop closes and when the
// cluster stops, and starts no goroutine of its own: once the waiters and
// the cluster are gone the goroutine count is back where it began.
func TestAwaitPhaseChangeStops(t *testing.T) {
	base := goruntime.NumGoroutine()
	c, chaos := raCluster(t, 2)
	c.Start()

	stop := make(chan struct{})
	byCaller := awaitAsync(c, stop, 0, tme.Thinking)
	byCluster := awaitAsync(c, nil, 1, tme.Thinking)
	select {
	case r := <-byCaller:
		t.Fatalf("wait returned %+v with nothing to wake it", r)
	case <-time.After(20 * time.Millisecond):
	}
	close(stop)
	expectResult(t, byCaller, awaitResult{tme.Thinking, false})
	c.Stop()
	expectResult(t, byCluster, awaitResult{tme.Thinking, false})
	_ = chaos.Close()

	if ph, ok := c.AwaitPhaseChangeShard(nil, 0, 5, tme.Thinking); ok || ph != 0 {
		t.Errorf("wait on an id the cluster does not host = (%v, %v), want (0, false)", ph, ok)
	}
	if !waitFor(t, 5*time.Second, func() bool { return goruntime.NumGoroutine() <= base }) {
		t.Errorf("goroutines: %d before, %d after", base, goruntime.NumGoroutine())
	}
}

// State corruption moves the phase without the protocol's consent; the
// waiter must be told of it like any other move.
func TestAwaitPhaseChangeSeesCorruption(t *testing.T) {
	c, _ := raCluster(t, 2)
	c.Start()

	forged := awaitAsync(c, nil, 0, tme.Thinking)
	c.CorruptShard(0, 0, tme.Corruption{Phase: tme.Eating})
	expectResult(t, forged, awaitResult{tme.Eating, true})
	c.ReleaseShard(0, 0)

	// Process 1 holds the CS, so process 0's request stays Hungry until a
	// fault wipes it back to Thinking.
	stop := watchdog(t)
	c.RequestShard(0, 1)
	if ph, ok := c.AwaitPhaseChangeShard(stop, 0, 1, tme.Hungry); !ok || ph != tme.Eating {
		t.Fatalf("process 1 never entered: (%v, %v)", ph, ok)
	}
	c.RequestShard(0, 0)
	wiped := awaitAsync(c, nil, 0, tme.Hungry)
	select {
	case r := <-wiped:
		t.Fatalf("process 0 left Hungry (%+v) while process 1 eats", r)
	case <-time.After(20 * time.Millisecond):
	}
	c.CorruptShard(0, 0, tme.Corruption{Phase: tme.Thinking})
	expectResult(t, wiped, awaitResult{tme.Thinking, true})
}

// Neither a wait that is already satisfied nor one that goes through the
// select allocates: there is no timer and no per-call channel.
func TestAwaitPhaseChangeAllocatesNothing(t *testing.T) {
	c, _ := raCluster(t, 1)
	c.Start()
	stopped := make(chan struct{})
	close(stopped)
	allocs := testing.AllocsPerRun(200, func() {
		if ph, ok := c.AwaitPhaseChangeShard(nil, 0, 0, tme.Hungry); !ok || ph != tme.Thinking {
			t.Fatalf("satisfied wait = (%v, %v)", ph, ok)
		}
		if _, ok := c.AwaitPhaseChangeShard(stopped, 0, 0, tme.Thinking); ok {
			t.Fatal("wait from the current phase returned a change")
		}
	})
	if allocs != 0 {
		t.Errorf("AwaitPhaseChangeShard allocates %.1f objects per call pair, want 0", allocs)
	}
}
