package wire

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

// msgQueue: FIFO must hold across refills, steady-state put/drain must be
// allocation-free and reuse capacity, and drain must hand over everything
// under one lock.

func TestMsgQueueFIFOAcrossRefills(t *testing.T) {
	q := newMsgQueue()
	stop := make(chan struct{})
	next := uint64(0) // next clock to put
	want := uint64(0) // next clock expected from drain
	put := func(k int) {
		for i := 0; i < k; i++ {
			q.put(tme.Message{TS: ltime.Timestamp{Clock: next}})
			next++
		}
	}
	var got []tme.Message
	drain := func(k int) {
		var ok bool
		got, ok = q.drain(stop, got[:0])
		if !ok || len(got) != k {
			t.Fatalf("drain = %d msgs, ok=%v; want %d", len(got), ok, k)
		}
		for _, m := range got {
			if m.TS.Clock != want {
				t.Fatalf("drained clock %d, want %d", m.TS.Clock, want)
			}
			want++
		}
	}
	// Refill past the first capacity several times, draining in between.
	put(10)
	drain(10)
	for i := 0; i < 20; i++ {
		put(13)
		drain(13)
	}
	if q.len() != 0 {
		t.Fatalf("queue not drained: len %d", q.len())
	}
}

func TestMsgQueueSteadyStateReusesCapacity(t *testing.T) {
	q := newMsgQueue()
	stop := make(chan struct{})
	// Warm up: grow the storage once, then drain it.
	for i := 0; i < 100; i++ {
		q.put(tme.Message{})
	}
	dst, _ := q.drain(stop, nil)
	capBefore := q.capacity()
	allocs := testing.AllocsPerRun(1000, func() {
		q.put(tme.Message{})
		var ok bool
		if dst, ok = q.drain(stop, dst[:0]); !ok || len(dst) != 1 {
			t.Fatal("drain failed")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state put+drain allocates %.1f per op, want 0", allocs)
	}
	if c := q.capacity(); c != capBefore {
		t.Errorf("capacity changed %d -> %d in steady state", capBefore, c)
	}
}

func TestMsgQueueDrainTakesAllInOrder(t *testing.T) {
	q := newMsgQueue()
	stop := make(chan struct{})
	// Fill and drain once first, so the second drain refills used storage.
	for i := 0; i < 20; i++ {
		q.put(tme.Message{})
	}
	q.drain(stop, nil)
	const n = 25
	for i := 0; i < n; i++ {
		q.put(tme.Message{TS: ltime.Timestamp{Clock: uint64(i)}})
	}
	got, ok := q.drain(stop, nil)
	if !ok || len(got) != n {
		t.Fatalf("drain = %d msgs, ok=%v; want %d", len(got), ok, n)
	}
	for i, m := range got {
		if m.TS.Clock != uint64(i) {
			t.Fatalf("drain[%d].Clock = %d (order lost)", i, m.TS.Clock)
		}
	}
	if q.len() != 0 {
		t.Fatalf("len after drain = %d", q.len())
	}
	// Empty queue + closed stop: drain must return without items.
	close(stop)
	if got, ok := q.drain(stop, got[:0]); ok || len(got) != 0 {
		t.Fatalf("drain after stop = (%d msgs, %v), want (0, false)", len(got), ok)
	}
}

// A burst queued before the peer is dialable must go out in a handful of
// flushes, not one write per message — the batching contract.
func TestSenderBatchesBurstIntoFewFlushes(t *testing.T) {
	o := obs.New(obs.Options{})
	t0, err := NewTransport(Config{N: 2, Local: []int{0}, Obs: o, DialBackoffMin: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := NewTransport(Config{N: 2, Local: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = t0.Close(); _ = t1.Close() })
	c1 := &collector{}
	t0.Start(func(int, tme.Message) {})
	t1.Start(c1.deliver)

	const n = 1000
	for i := 0; i < n; i++ {
		t0.Send(tme.Message{Kind: tme.Request, TS: ltime.Timestamp{Clock: uint64(i)}, From: 0, To: 1})
	}
	t0.SetPeers([]string{"", t1.Addr()}) // release the burst
	c1.waitLen(t, n, 5*time.Second)
	// The sender counts a batch after its flush returns, which can be after
	// the peer has read it; Close joins the sender, so the counts are final.
	_ = t0.Close()

	r := o.Registry()
	sent := r.Counter("wire_msgs_sent_total", "").Value()
	flushes := r.Counter("wire_flushes_total", "").Value()
	if sent != n {
		t.Fatalf("wire_msgs_sent_total = %d, want %d", sent, n)
	}
	// The sender may split the burst across a few drain turns (one before
	// the address lands, one after), but per-message writes would be ~n.
	if flushes == 0 || flushes > 10 {
		t.Errorf("wire_flushes_total = %d for a %d-message burst, want a handful", flushes, n)
	}
}

// SetPeers while senders and remote readers are running must be safe (the
// atomic peers snapshot) and must not lose messages. Run under -race this
// is the repoint-while-sending regression test.
func TestSetPeersRepointWhileSending(t *testing.T) {
	t0, t1, _, c1 := newPair(t)
	addrs := []string{t0.Addr(), t1.Addr()}
	const n = 500
	var wg sync.WaitGroup
	wg.Add(2)
	stop := make(chan struct{})
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Alternate a bogus address for the *other* direction; the
			// 0->1 edge this test asserts on always stays correct.
			if i&1 == 0 {
				t0.SetPeers(addrs)
			} else {
				t0.SetPeers([]string{"127.0.0.1:1", addrs[1]})
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			t0.Send(tme.Message{Kind: tme.Request, TS: ltime.Timestamp{Clock: uint64(i)}, From: 0, To: 1})
		}
	}()
	got := c1.waitLen(t, n, 10*time.Second)
	close(stop)
	wg.Wait()
	for i, m := range got[:n] {
		if m.TS.Clock != uint64(i) {
			t.Fatalf("message %d = %+v (order lost across repoints)", i, m)
		}
	}
}

// A peer that accepts every dial but kills the connection before a write
// succeeds must see backed-off dials, not a tight dial loop: the backoff
// only resets after a successful flush.
func TestBackoffNotResetByDialAlone(t *testing.T) {
	tr, err := NewTransport(Config{
		N: 2, Local: []int{0},
		DialBackoffMin: time.Millisecond,
		DialBackoffMax: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	var dials atomic.Int64
	tr.dial = func(string) (net.Conn, error) {
		dials.Add(1)
		// Dial "succeeds" but the far end is already gone: every write
		// (well, flush) fails with io.ErrClosedPipe, deterministically.
		client, server := net.Pipe()
		_ = server.Close()
		return client, nil
	}
	tr.Start(func(int, tme.Message) {})
	tr.SetPeers([]string{"", "127.0.0.1:1"})
	tr.Send(tme.Message{Kind: tme.Request, From: 0, To: 1})

	time.Sleep(400 * time.Millisecond)
	got := dials.Load()
	// With backoff growing 1,2,4,...,250ms across failed *writes*, ~10
	// dials fit in 400ms. The old reset-on-dial bug made this ~400.
	if got == 0 || got > 25 {
		t.Fatalf("%d dials in 400ms: backoff defeated by successful dials", got)
	}
}

// Encode errors drop the message (it could never be sent anywhere) while
// the rest of the batch still flows — they must not poison the edge.
func TestSenderDropsUnencodableKeepsRest(t *testing.T) {
	o := obs.New(obs.Options{})
	t0, err := NewTransport(Config{N: 2, Local: []int{0}, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := NewTransport(Config{N: 2, Local: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = t0.Close(); _ = t1.Close() })
	c1 := &collector{}
	t0.Start(func(int, tme.Message) {})
	t1.Start(c1.deliver)
	t0.SetPeers([]string{"", t1.Addr()})

	t0.Send(tme.Message{Kind: tme.Request, TS: ltime.Timestamp{Clock: 1}, From: 0, To: 1})
	t0.Send(tme.Message{Kind: -1, TS: ltime.Timestamp{Clock: 2}, From: 0, To: 1}) // unencodable
	t0.Send(tme.Message{Kind: tme.Reply, TS: ltime.Timestamp{Clock: 3}, From: 0, To: 1})
	got := c1.waitLen(t, 2, 5*time.Second)
	if got[0].TS.Clock != 1 || got[1].TS.Clock != 3 {
		t.Fatalf("delivered %+v, want clocks 1 then 3", got)
	}
	if d := o.Registry().Counter("wire_msgs_dropped_total", "").Value(); d != 1 {
		t.Errorf("wire_msgs_dropped_total = %d, want 1", d)
	}
}
