package wire

import (
	"sync"
	"testing"
	"time"

	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

// collector gathers delivered messages goroutine-safely.
type collector struct {
	mu   sync.Mutex
	msgs []tme.Message
}

func (c *collector) deliver(_ int, m tme.Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
}

func (c *collector) snapshot() []tme.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]tme.Message(nil), c.msgs...)
}

func (c *collector) waitLen(t *testing.T, n int, timeout time.Duration) []tme.Message {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if got := c.snapshot(); len(got) >= n {
			return got
		}
		time.Sleep(time.Millisecond)
	}
	got := c.snapshot()
	t.Fatalf("delivered %d messages, want %d", len(got), n)
	return nil
}

func newPair(t *testing.T) (*Transport, *Transport, *collector, *collector) {
	t.Helper()
	t0, err := NewTransport(Config{N: 2, Local: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := NewTransport(Config{N: 2, Local: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{t0.Addr(), t1.Addr()}
	t0.SetPeers(addrs)
	t1.SetPeers(addrs)
	c0, c1 := &collector{}, &collector{}
	t0.Start(c0.deliver)
	t1.Start(c1.deliver)
	t.Cleanup(func() { _ = t0.Close(); _ = t1.Close() })
	return t0, t1, c0, c1
}

func TestTransportDeliversFIFOBothWays(t *testing.T) {
	t0, t1, c0, c1 := newPair(t)
	const n = 50
	for i := 0; i < n; i++ {
		t0.Send(tme.Message{Kind: tme.Request, TS: ltime.Timestamp{Clock: uint64(i)}, From: 0, To: 1})
		t1.Send(tme.Message{Kind: tme.Reply, TS: ltime.Timestamp{Clock: uint64(i)}, From: 1, To: 0})
	}
	got1 := c1.waitLen(t, n, 5*time.Second)
	got0 := c0.waitLen(t, n, 5*time.Second)
	for i := 0; i < n; i++ {
		if got1[i].TS.Clock != uint64(i) || got1[i].Kind != tme.Request {
			t.Fatalf("t1 message %d = %+v (FIFO violated)", i, got1[i])
		}
		if got0[i].TS.Clock != uint64(i) || got0[i].Kind != tme.Reply {
			t.Fatalf("t0 message %d = %+v (FIFO violated)", i, got0[i])
		}
	}
}

func TestTransportLocalDelivery(t *testing.T) {
	tr, err := NewTransport(Config{N: 3, Local: []int{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := &collector{}
	tr.Start(c.deliver)
	tr.Send(tme.Message{Kind: tme.Request, From: 0, To: 2})
	got := c.waitLen(t, 1, time.Second)
	if got[0].To != 2 {
		t.Fatalf("local delivery = %+v", got[0])
	}
}

// Messages sent before the peer address is known must queue and flow once
// SetPeers lands — the reconnect/backoff path.
func TestTransportQueuesUntilPeerKnown(t *testing.T) {
	t0, err := NewTransport(Config{N: 2, Local: []int{0}, DialBackoffMin: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := NewTransport(Config{N: 2, Local: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = t0.Close(); _ = t1.Close() }()
	c1 := &collector{}
	t0.Start(func(int, tme.Message) {})
	t1.Start(c1.deliver)
	for i := 0; i < 5; i++ {
		t0.Send(tme.Message{Kind: tme.Request, TS: ltime.Timestamp{Clock: uint64(i)}, From: 0, To: 1})
	}
	time.Sleep(20 * time.Millisecond) // let the sender hit the unknown-peer path
	t0.SetPeers([]string{"", t1.Addr()})
	got := c1.waitLen(t, 5, 5*time.Second)
	for i, m := range got {
		if m.TS.Clock != uint64(i) {
			t.Fatalf("message %d = %+v (order lost across backoff)", i, m)
		}
	}
}

func TestTransportRedialsAfterPeerRestart(t *testing.T) {
	t0, err := NewTransport(Config{N: 2, Local: []int{0}, DialBackoffMin: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	t0.Start(func(int, tme.Message) {})

	t1a, err := NewTransport(Config{N: 2, Local: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	c1a := &collector{}
	t1a.Start(c1a.deliver)
	t0.SetPeers([]string{"", t1a.Addr()})
	t0.Send(tme.Message{Kind: tme.Request, From: 0, To: 1})
	c1a.waitLen(t, 1, 5*time.Second)
	_ = t1a.Close()

	// Restart the peer on a fresh port; the sender must redial there.
	t1b, err := NewTransport(Config{N: 2, Local: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	defer t1b.Close()
	c1b := &collector{}
	t1b.Start(c1b.deliver)
	t0.SetPeers([]string{"", t1b.Addr()})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && len(c1b.snapshot()) == 0 {
		// Keep sending: writes onto the dead connection fail once, then
		// the sender reconnects to the new address.
		t0.Send(tme.Message{Kind: tme.Reply, From: 0, To: 1})
		time.Sleep(5 * time.Millisecond)
	}
	if len(c1b.snapshot()) == 0 {
		t.Fatal("no message arrived after peer restart")
	}
}

func TestTransportValidates(t *testing.T) {
	if _, err := NewTransport(Config{N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := NewTransport(Config{N: 2, Local: []int{5}}); err == nil {
		t.Error("out-of-range Local accepted")
	}
}

func TestTransportSendAfterCloseIsNoop(t *testing.T) {
	tr, err := NewTransport(Config{N: 2, Local: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	c := &collector{}
	tr.Start(c.deliver)
	_ = tr.Close()
	tr.Send(tme.Message{From: 0, To: 1}) // must not panic or spawn goroutines
	tr.Send(tme.Message{From: 0, To: 9}) // out of range: dropped
	tr.Send(tme.Message{From: 1, To: 0}) // local: no delivery after Close
	if got := c.snapshot(); len(got) != 0 {
		t.Errorf("delivered %+v after Close", got)
	}
}
