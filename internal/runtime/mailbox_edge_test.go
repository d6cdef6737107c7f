package runtime

import (
	"sync"
	"testing"
	"time"
)

// A put after close must be dropped, not resurrect the queue.
func TestMailboxPutAfterClose(t *testing.T) {
	m := newMailbox[int]()
	m.put(1)
	m.close()
	m.put(2)
	if m.len() != 0 {
		t.Errorf("len after close = %d, want 0", m.len())
	}
	if _, ok := m.tryGet(); ok {
		t.Error("tryGet returned an item after close")
	}
	m.close() // closing twice is harmless
}

// Concurrent producers and a draining consumer must neither lose nor
// duplicate items (run under -race via `make test-race`).
func TestMailboxConcurrentPutTryGet(t *testing.T) {
	const producers, perProducer = 8, 500
	m := newMailbox[int]()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				m.put(p*perProducer + i)
			}
		}()
	}

	seen := make(map[int]bool, producers*perProducer)
	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.After(5 * time.Second)
		for len(seen) < producers*perProducer {
			select {
			case <-m.ready():
			case <-deadline:
				return
			}
			for {
				v, ok := m.tryGet()
				if !ok {
					break
				}
				if seen[v] {
					t.Errorf("item %d delivered twice", v)
				}
				seen[v] = true
			}
		}
	}()
	wg.Wait()
	<-done
	if len(seen) != producers*perProducer {
		t.Errorf("delivered %d items, want %d", len(seen), producers*perProducer)
	}
}

// The signal channel has capacity 1: many puts may coalesce into one
// wakeup, so a consumer must drain the queue fully per signal. A consumer
// that takes only one item per signal would starve — this test pins the
// invariant that the queue still holds the rest (regression guard for the
// drain loops in eventLoop/forward).
func TestMailboxSignalCoalescing(t *testing.T) {
	m := newMailbox[int]()
	for i := 0; i < 100; i++ {
		m.put(i)
	}
	// All 100 puts coalesced into at most one pending signal.
	select {
	case <-m.ready():
	default:
		t.Fatal("no signal pending after puts")
	}
	select {
	case <-m.ready():
		t.Fatal("second signal pending: signals are not coalescing")
	default:
	}
	// Everything must be drainable without further signals.
	for i := 0; i < 100; i++ {
		v, ok := m.tryGet()
		if !ok || v != i {
			t.Fatalf("drain item %d: got %d ok=%v", i, v, ok)
		}
	}
	if _, ok := m.tryGet(); ok {
		t.Error("queue not empty after drain")
	}
	// A put after the drain must raise a fresh signal (no lost wakeups).
	m.put(7)
	select {
	case <-m.ready():
	case <-time.After(time.Second):
		t.Fatal("signal lost after drain")
	}
}

// A queue whose head has advanced wraps its tail round the ring's end, and
// grows from a wrapped state: both must keep FIFO order.
func TestMailboxRingWraps(t *testing.T) {
	m := newMailbox[int]()
	next, want := 0, 0
	get := func() {
		t.Helper()
		v, ok := m.tryGet()
		if !ok || v != want {
			t.Fatalf("tryGet = %d, %v; want %d, true", v, ok, want)
		}
		want++
	}
	for ; next < 12; next++ {
		m.put(next)
	}
	for want < 10 {
		get()
	}
	for ; next < 22; next++ { // wraps: the ring holds 16
		m.put(next)
	}
	if m.head+m.n <= len(m.buf) {
		t.Fatalf("head %d + %d items within a ring of %d: the tail did not wrap", m.head, m.n, len(m.buf))
	}
	for ; next < 40; next++ { // grows while wrapped
		m.put(next)
	}
	for want < next {
		get()
	}
	if _, ok := m.tryGet(); ok {
		t.Error("queue not empty after drain")
	}
}

// Once its ring has grown to the burst size, a mailbox that takes a burst
// and drains it allocates nothing.
func TestMailboxSteadyStateDrainAllocatesNothing(t *testing.T) {
	m := newMailbox[int]()
	burst := func() {
		for i := 0; i < 50; i++ {
			m.put(i)
		}
		for i := 0; i < 50; i++ {
			if v, ok := m.tryGet(); !ok || v != i {
				t.Fatalf("drain item %d: got %d ok=%v", i, v, ok)
			}
		}
		<-m.ready()
	}
	burst() // grow the ring once
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Errorf("a put-and-drain burst allocates %.0f times, want 0", allocs)
	}
}
