package runtime

import (
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/graybox-stabilization/graybox/internal/lamport"
	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/ra"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// gateTransport delivers nothing itself. Its first Send is process 0's
// client routing the REQ fan-out, outside the node's lock: that Send hands
// two REQs to process 0 from two goroutines of its own and holds the client
// until process 0 has answered the earlier one (Deliver's reply, sent on
// its delivering goroutine) and its timer has fired W' (the wrapper's
// buffer). Every Send made while the client is held is another goroutine's;
// every other one is the client's.
type gateTransport struct {
	t       *testing.T
	deliver func(dst int, m tme.Message)
	others  chan tme.Message // the other goroutines' sends while the client is held

	mu         sync.Mutex
	started    bool          // guarded by mu
	holding    bool          // guarded by mu
	client     []tme.Message // guarded by mu
	fromOthers []tme.Message // written by the held client only
}

func (g *gateTransport) Start(deliver func(dst int, m tme.Message)) { g.deliver = deliver }
func (g *gateTransport) Close() error                               { return nil }

func (g *gateTransport) Send(m tme.Message) {
	g.mu.Lock()
	first, holding := !g.started, g.holding
	g.started = true
	if first {
		g.holding = true
	}
	if !holding {
		g.client = append(g.client, m)
	}
	g.mu.Unlock()
	switch {
	case first:
		g.hold()
	case holding:
		g.others <- m
	}
}

// hold runs on the client goroutine, inside its first Send. Process 1's
// request is later than process 0's, so it is deferred; process 2's is
// earlier, so process 0 replies to it at once.
func (g *gateTransport) hold() {
	for _, m := range []tme.Message{
		{Kind: tme.Request, TS: ltime.Timestamp{Clock: 5, PID: 1}, From: 1, To: 0},
		{Kind: tme.Request, TS: ltime.Timestamp{Clock: 0, PID: 2}, From: 2, To: 0},
	} {
		go g.deliver(0, m)
	}
	for len(g.fromOthers) < 3 { // the reply and the two resends of W'
		select {
		case m := <-g.others:
			g.fromOthers = append(g.fromOthers, m)
		case <-time.After(10 * time.Second):
			g.t.Errorf("the other goroutines sent only %v while the client was held", g.fromOthers)
			return
		}
	}
	g.mu.Lock()
	g.holding = false
	g.mu.Unlock()
}

// gateW is W' that fires once, and only after process 0 holds both
// injected requests, so that its firing is a fixed, known set.
type gateW struct {
	*wrapper.Timed
	fired bool // the timer's callback only
}

func (w *gateW) Fire(now int64, v tme.SpecView) []tme.Message {
	l1, _ := v.LocalREQ(1)
	l2, _ := v.LocalREQ(2)
	if w.fired || l1.IsZero() || l2.IsZero() {
		return nil
	}
	w.fired = true
	return w.Timed.Fire(now, v)
}

// TestFanOutSurvivesConcurrentDeliverAndFire is RequestShard's live
// argument, run under -race by make test-race (about 0.01 s): the client
// routes process 0's fan-out from the node's RequestCS buffer while two
// other goroutines deliver a REQ each to the node, one replying from
// Deliver's buffer, and the timer fires W' into the wrapper's buffer. Every
// message the client routes must be one RequestCS produced, and the other
// goroutines' sends must be the reply and the resends of W', whole.
func TestFanOutSurvivesConcurrentDeliverAndFire(t *testing.T) {
	const n = 4
	g := &gateTransport{t: t, others: make(chan tme.Message, 3)}
	c, err := NewCluster(Config{
		N:       n,
		NewNode: func(id, nn int) tme.Node { return ra.New(id, nn) },
		NewWrapper: func(int) wrapper.Level2 {
			return &gateW{Timed: wrapper.NewTimed(time.Millisecond.Nanoseconds())}
		},
		Transport: g,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	c.RequestShard(0, 0) // returns once the client has routed the whole fan-out

	req := ltime.Timestamp{Clock: 1, PID: 0}
	var want []tme.Message
	for k := 1; k < n; k++ {
		want = append(want, tme.Message{Kind: tme.Request, TS: req, From: 0, To: k})
	}
	wantOthers := []tme.Message{
		{Kind: tme.Reply, TS: req, From: 0, To: 2},
		{Kind: tme.Request, TS: req, From: 0, To: 2},
		{Kind: tme.Request, TS: req, From: 0, To: 3},
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !slices.Equal(g.client, want) {
		t.Errorf("the client routed %v, RequestCS produced %v", g.client, want)
	}
	if !slices.Equal(g.fromOthers, wantOthers) {
		t.Errorf("the other goroutines sent %v while the client was held, want %v", g.fromOthers, wantOthers)
	}
}

// sendLog is a Transport that carries nothing and logs every Send.
type sendLog struct {
	mu   sync.Mutex
	sent []tme.Message // guarded by mu
}

func (l *sendLog) Start(func(dst int, m tme.Message)) {}
func (l *sendLog) Close() error                       { return nil }

func (l *sendLog) Send(m tme.Message) {
	l.mu.Lock()
	l.sent = append(l.sent, m)
	l.mu.Unlock()
}

// TestConcurrentDeliveriesKeepTheirReplies: several goroutines deliver
// REQs to one thinking process at once, and each delivery's reply is
// routed outside the process's lock while the next Deliver rewrites the
// node's one-message reply buffer. A thinking node answers every REQ, each
// at a fresh timestamp, so the routed messages must be exactly one reply
// per REQ, to its sender, with no timestamp twice: a reply routed from the
// shared buffer instead of its copy shows as a duplicate and a loss.
func TestConcurrentDeliveriesKeepTheirReplies(t *testing.T) {
	const senders, each = 4, 200
	for _, algo := range []struct {
		name string
		node func(id, n int) tme.Node
	}{
		{"ra", func(id, n int) tme.Node { return ra.New(id, n) }},
		{"lamport", func(id, n int) tme.Node { return lamport.New(id, n) }},
	} {
		t.Run(algo.name, func(t *testing.T) {
			l := &sendLog{}
			c, err := NewCluster(Config{N: senders + 1, NewNode: algo.node, Transport: l})
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			defer c.Stop()
			var wg sync.WaitGroup
			for k := 1; k <= senders; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := uint64(1); i <= each; i++ {
						c.deliver(0, tme.Message{Kind: tme.Request, TS: ltime.Timestamp{Clock: i, PID: k}, From: k, To: 0})
					}
				}()
			}
			wg.Wait()

			l.mu.Lock()
			defer l.mu.Unlock()
			if len(l.sent) != senders*each {
				t.Fatalf("routed %d messages for %d REQs, want one reply each", len(l.sent), senders*each)
			}
			per := make([]int, senders+1)
			seen := make(map[ltime.Timestamp]bool, len(l.sent))
			for _, m := range l.sent {
				if m.Kind != tme.Reply || m.From != 0 || m.To < 1 || m.To > senders {
					t.Fatalf("routed %v, which no REQ's reply is", m)
				}
				if seen[m.TS] {
					t.Fatalf("routed a reply at %v twice", m.TS)
				}
				seen[m.TS] = true
				per[m.To]++
			}
			for k := 1; k <= senders; k++ {
				if per[k] != each {
					t.Errorf("process %d got %d replies to its %d REQs", k, per[k], each)
				}
			}
		})
	}
}

// TestDeliveryAllocatesNothing: stepping a process with a delivery and
// routing its reply allocates nothing, on either protocol and wrapped or
// not. The reply is copied out of the node's buffer into a fixed array on
// the delivering goroutine's stack.
func TestDeliveryAllocatesNothing(t *testing.T) {
	for _, algo := range []struct {
		name string
		node func(id, n int) tme.Node
	}{
		{"ra", func(id, n int) tme.Node { return ra.New(id, n) }},
		{"lamport", func(id, n int) tme.Node { return lamport.New(id, n) }},
	} {
		for _, wrapped := range []bool{false, true} {
			cfg := Config{N: 2, NewNode: algo.node, Transport: discard{}}
			if wrapped {
				cfg.NewWrapper = func(int) wrapper.Level2 { return wrapper.NewTimed(time.Hour.Nanoseconds()) }
			}
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			clock := uint64(0)
			if a := testing.AllocsPerRun(200, func() {
				clock++
				c.deliver(0, tme.Message{Kind: tme.Request, TS: ltime.Timestamp{Clock: clock, PID: 1}, From: 1, To: 0})
			}); a != 0 {
				t.Errorf("%s (wrapped %v): a delivery allocates %.1f, want 0", algo.name, wrapped, a)
			}
			c.Stop()
		}
	}
}

// discard is a Transport that carries nothing.
type discard struct{}

func (discard) Start(func(dst int, m tme.Message)) {}
func (discard) Send(tme.Message)                   {}
func (discard) Close() error                       { return nil }
