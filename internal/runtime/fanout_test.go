package runtime

import (
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/ra"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// gateTransport delivers nothing. Its first Send is process 0's client
// routing the REQ fan-out, outside the node's lock: that Send injects two
// REQs into process 0's inbox and holds the client until the event loop
// has answered the earlier one (Deliver's reply) and fired W' (the
// wrapper's buffer). Every Send made while the client is held is the event
// loop's; every other one is the client's.
type gateTransport struct {
	t       *testing.T
	deliver func(dst int, m tme.Message)
	loop    chan tme.Message // the event loop's sends while the client is held

	mu       sync.Mutex
	started  bool          // guarded by mu
	holding  bool          // guarded by mu
	client   []tme.Message // guarded by mu
	fromLoop []tme.Message // written by the held client only
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
		g.loop <- m
	}
}

// hold runs on the client goroutine, inside its first Send. Process 1's
// request is later than process 0's, so it is deferred; process 2's is
// earlier, so the event loop replies to it at once.
func (g *gateTransport) hold() {
	g.deliver(0, tme.Message{Kind: tme.Request, TS: ltime.Timestamp{Clock: 5, PID: 1}, From: 1, To: 0})
	g.deliver(0, tme.Message{Kind: tme.Request, TS: ltime.Timestamp{Clock: 0, PID: 2}, From: 2, To: 0})
	for len(g.fromLoop) < 3 { // the reply and the two resends of W'
		select {
		case m := <-g.loop:
			g.fromLoop = append(g.fromLoop, m)
		case <-time.After(10 * time.Second):
			g.t.Errorf("event loop sent only %v while the client was held", g.fromLoop)
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
	fired bool // event loop only
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
// routes process 0's fan-out from the node's RequestCS buffer while the
// event loop delivers a REQ to the node, replies from Deliver's buffer and
// fires W' into the wrapper's buffer. Every message the client routes must
// be one RequestCS produced, and the event loop's sends must be the reply
// and the resends of W', whole.
func TestFanOutSurvivesConcurrentDeliverAndFire(t *testing.T) {
	const n = 4
	g := &gateTransport{t: t, loop: make(chan tme.Message, 3)}
	c, err := NewCluster(Config{
		N: n, Seed: 1,
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

	c.Request(0) // returns once the client has routed the whole fan-out

	req := ltime.Timestamp{Clock: 1, PID: 0}
	var want []tme.Message
	for k := 1; k < n; k++ {
		want = append(want, tme.Message{Kind: tme.Request, TS: req, From: 0, To: k})
	}
	wantLoop := []tme.Message{
		{Kind: tme.Reply, TS: req, From: 0, To: 2},
		{Kind: tme.Request, TS: req, From: 0, To: 2},
		{Kind: tme.Request, TS: req, From: 0, To: 3},
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !slices.Equal(g.client, want) {
		t.Errorf("the client routed %v, RequestCS produced %v", g.client, want)
	}
	if !slices.Equal(g.fromLoop, wantLoop) {
		t.Errorf("the event loop sent %v while the client was held, want %v", g.fromLoop, wantLoop)
	}
}
