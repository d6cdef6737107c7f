package ra

import (
	"slices"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

// pump delivers all outstanding messages synchronously (FIFO per queue
// ordering of the slice) until quiescence, letting each node step after
// deliveries. It returns the number of CS entries observed.
func pump(t *testing.T, nodes []*Node, pending []tme.Message) (entries int, rest []tme.Message) {
	t.Helper()
	for len(pending) > 0 {
		m := pending[0]
		pending = pending[1:]
		if m.To < 0 || m.To >= len(nodes) {
			t.Fatalf("message to unknown node: %v", m)
		}
		out := nodes[m.To].Deliver(m)
		pending = append(pending, out...)
		for _, nd := range nodes {
			if ok, msgs := nd.Step(); ok {
				entries++
				pending = append(pending, msgs...)
			}
		}
	}
	return entries, pending
}

func newCluster(n int) []*Node {
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = New(i, n)
	}
	return nodes
}

func TestInitState(t *testing.T) {
	nd := New(1, 3)
	if nd.ID() != 1 || nd.N() != 3 {
		t.Error("ID/N wrong")
	}
	if nd.Phase() != tme.Thinking {
		t.Errorf("initial phase = %v", nd.Phase())
	}
	// REQ_j = 0: the empty-history timestamp at j (clock 0, own pid).
	if got := nd.REQ(); got.Clock != 0 || got.PID != 1 {
		t.Errorf("initial REQ = %v, want 0.1", got)
	}
	for k := 0; k < 3; k++ {
		ts, rcvd := nd.LocalREQ(k)
		if !ts.IsZero() || rcvd {
			t.Errorf("LocalREQ(%d) = (%v,%v)", k, ts, rcvd)
		}
	}
}

func TestLocalREQBounds(t *testing.T) {
	nd := New(0, 2)
	if ts, r := nd.LocalREQ(-1); !ts.IsZero() || r {
		t.Error("LocalREQ(-1) not zero")
	}
	if ts, r := nd.LocalREQ(0); !ts.IsZero() || r {
		t.Error("LocalREQ(self) not zero")
	}
	if ts, r := nd.LocalREQ(9); !ts.IsZero() || r {
		t.Error("LocalREQ(9) not zero")
	}
}

func TestRequestCS(t *testing.T) {
	nd := New(0, 3)
	msgs := nd.RequestCS()
	if nd.Phase() != tme.Hungry {
		t.Fatalf("phase = %v, want hungry", nd.Phase())
	}
	if nd.REQ().Clock == 0 {
		t.Fatal("REQ clock still zero after request")
	}
	if len(msgs) != 2 {
		t.Fatalf("sent %d messages, want 2", len(msgs))
	}
	for _, m := range msgs {
		if m.Kind != tme.Request || m.From != 0 || m.TS != nd.REQ() {
			t.Errorf("bad request message %v", m)
		}
	}
	// Idempotent outside thinking.
	if again := nd.RequestCS(); again != nil {
		t.Error("RequestCS while hungry sent messages")
	}
}

func TestReleaseCSOnlyWhenEating(t *testing.T) {
	nd := New(0, 2)
	if msgs := nd.ReleaseCS(); msgs != nil {
		t.Error("ReleaseCS while thinking sent messages")
	}
}

func TestSoloThreeProcessRound(t *testing.T) {
	nodes := newCluster(3)
	pending := nodes[0].RequestCS()
	entries, _ := pump(t, nodes, pending)
	if entries != 1 {
		t.Fatalf("entries = %d, want 1", entries)
	}
	if nodes[0].Phase() != tme.Eating {
		t.Fatalf("node 0 phase = %v, want eating", nodes[0].Phase())
	}
	rel := nodes[0].ReleaseCS()
	if nodes[0].Phase() != tme.Thinking {
		t.Fatalf("after release phase = %v", nodes[0].Phase())
	}
	// No one was deferred, so no replies go out.
	if len(rel) != 0 {
		t.Errorf("release sent %d messages, want 0", len(rel))
	}
}

func TestContendingRequestsRespectTimestampOrder(t *testing.T) {
	nodes := newCluster(2)
	m0 := nodes[0].RequestCS()
	m1 := nodes[1].RequestCS()
	// Both requested at clock 1; pid 0 breaks the tie and must win.
	pending := append(append([]tme.Message{}, m0...), m1...)
	entries, _ := pump(t, nodes, pending)
	if entries != 1 {
		t.Fatalf("entries = %d, want exactly 1 (mutual exclusion)", entries)
	}
	if nodes[0].Phase() != tme.Eating {
		t.Fatalf("node 0 should win the tie, phases: %v %v", nodes[0].Phase(), nodes[1].Phase())
	}
	if nodes[1].Phase() != tme.Hungry {
		t.Fatalf("node 1 should still be hungry: %v", nodes[1].Phase())
	}
	// Node 1 must be in node 0's deferred set; releasing serves it.
	rel := nodes[0].ReleaseCS()
	if len(rel) != 1 || rel[0].Kind != tme.Reply || rel[0].To != 1 {
		t.Fatalf("release messages = %v, want one reply to 1", rel)
	}
	entries, _ = pump(t, nodes, rel)
	if entries != 1 || nodes[1].Phase() != tme.Eating {
		t.Fatalf("node 1 did not enter after deferred reply: %v", nodes[1].Phase())
	}
}

func TestFCFSAcrossManyRounds(t *testing.T) {
	const n = 4
	nodes := newCluster(n)
	// Round-robin: each node requests, enters, releases — FCFS by
	// timestamp means each round completes with exactly one entry.
	for round := 0; round < 8; round++ {
		j := round % n
		pending := nodes[j].RequestCS()
		entries, _ := pump(t, nodes, pending)
		if entries != 1 {
			t.Fatalf("round %d: entries = %d", round, entries)
		}
		if nodes[j].Phase() != tme.Eating {
			t.Fatalf("round %d: requester not eating", round)
		}
		rel := nodes[j].ReleaseCS()
		if entries, _ := pump(t, nodes, rel); entries != 0 {
			t.Fatalf("round %d: release caused an extra entry", round)
		}
	}
}

func TestThinkingProcessRepliesImmediately(t *testing.T) {
	nodes := newCluster(2)
	req := nodes[0].RequestCS()
	out := nodes[1].Deliver(req[0])
	if len(out) != 1 || out[0].Kind != tme.Reply || out[0].To != 0 {
		t.Fatalf("thinking node reply = %v", out)
	}
	// The reply must be later than the request so node 0's guard opens.
	if !req[0].TS.Less(out[0].TS) {
		t.Errorf("reply ts %v not later than request ts %v", out[0].TS, req[0].TS)
	}
	// received flag is discharged after the immediate reply.
	if _, rcvd := nodes[1].LocalREQ(0); rcvd {
		t.Error("received flag still set after immediate reply")
	}
}

func TestDeferredRequestKeepsReceivedFlag(t *testing.T) {
	nodes := newCluster(2)
	m0 := nodes[0].RequestCS()
	nodes[1].RequestCS() // node 1 requests later (after observing nothing)
	// Deliver node 0's earlier request to node 1: 1 must reply (0 earlier).
	out := nodes[1].Deliver(m0[0])
	if len(out) != 1 || out[0].Kind != tme.Reply {
		t.Fatalf("expected immediate reply to earlier request, got %v", out)
	}
	// Now deliver node 1's request to node 0: 0's request is earlier, so
	// 0 defers and the received flag stays set.
	m1 := tme.Message{Kind: tme.Request, TS: nodes[1].REQ(), From: 1, To: 0}
	if out := nodes[0].Deliver(m1); len(out) != 0 {
		t.Fatalf("node 0 should defer, sent %v", out)
	}
	if _, rcvd := nodes[0].LocalREQ(1); !rcvd {
		t.Error("deferred request lost its received flag")
	}
}

func TestDeliverIgnoresGarbage(t *testing.T) {
	nd := New(0, 2)
	for _, m := range []tme.Message{
		{Kind: tme.Request, From: -1, To: 0},
		{Kind: tme.Request, From: 9, To: 0},
		{Kind: tme.Request, From: 0, To: 0}, // self
		{Kind: tme.Kind(99), From: 1, To: 0},
		{Kind: tme.Release, From: 1, To: 0}, // RA has no release messages
	} {
		if out := nd.Deliver(m); out != nil {
			t.Errorf("Deliver(%v) = %v, want nil", m, out)
		}
	}
	if nd.Phase() != tme.Thinking {
		t.Error("garbage changed phase")
	}
}

func TestStepOnlyWhenHungry(t *testing.T) {
	nd := New(0, 1)
	if ok, _ := nd.Step(); ok {
		t.Error("thinking node entered CS")
	}
	// Single-process system: request then immediately enter.
	nd.RequestCS()
	if ok, _ := nd.Step(); !ok {
		t.Error("hungry single node did not enter")
	}
	if ok, _ := nd.Step(); ok {
		t.Error("eating node entered again")
	}
}

func TestCorrupt(t *testing.T) {
	nd := New(0, 3)
	ts := ltime.Timestamp{Clock: 7, PID: 0}
	clk := uint64(50)
	nd.Corrupt(tme.Corruption{
		Phase:         tme.Eating,
		REQ:           &ts,
		LocalREQ:      map[int]ltime.Timestamp{1: {Clock: 3, PID: 1}, 0: {Clock: 1, PID: 9}},
		ForgeReceived: []int{2},
		Clock:         &clk,
	})
	if nd.Phase() != tme.Eating {
		t.Error("phase not corrupted")
	}
	if nd.REQ() != ts {
		t.Error("REQ not corrupted")
	}
	if got, _ := nd.LocalREQ(1); got != (ltime.Timestamp{Clock: 3, PID: 1}) {
		t.Error("local not corrupted")
	}
	if _, rcvd := nd.LocalREQ(2); !rcvd {
		t.Error("received not forged")
	}
	// Self index must be protected even against corruption plumbing.
	if got, _ := nd.LocalREQ(0); !got.IsZero() {
		t.Error("self local corrupted")
	}
	nd.Corrupt(tme.Corruption{DropReceived: []int{2}})
	if _, rcvd := nd.LocalREQ(2); rcvd {
		t.Error("received not dropped")
	}
	// Scramble is deterministic in the seed.
	a, b := New(0, 4), New(0, 4)
	a.Corrupt(tme.Corruption{ScrambleInternal: true, Seed: 42})
	b.Corrupt(tme.Corruption{ScrambleInternal: true, Seed: 42})
	for k := 1; k < 4; k++ {
		ta, ra := a.LocalREQ(k)
		tb, rb := b.LocalREQ(k)
		if ta != tb || ra != rb {
			t.Error("scramble not deterministic")
		}
	}
}

// The paper's §4 deadlock scenario, in miniature: both requests dropped in
// flight leaves two hungry processes that never enter — RA alone cannot
// recover (the wrapper test in internal/wrapper shows W fixes it).
func TestDroppedRequestsDeadlockWithoutWrapper(t *testing.T) {
	nodes := newCluster(2)
	nodes[0].RequestCS() // messages dropped
	nodes[1].RequestCS() // messages dropped
	entries, _ := pump(t, nodes, nil)
	if entries != 0 {
		t.Fatalf("entries = %d, want 0 (deadlock)", entries)
	}
	if nodes[0].Phase() != tme.Hungry || nodes[1].Phase() != tme.Hungry {
		t.Error("processes should be stuck hungry")
	}
}

// TestDeliverResultValidUntilNextDeliver states tme.Node.Deliver's aliasing
// contract as this package uses it: the immediate reply lives in the node's
// own buffer, so it survives every other call on the node but not the next
// Deliver. A caller that needs it longer copies the message out.
func TestDeliverResultValidUntilNextDeliver(t *testing.T) {
	nodes := newCluster(3)
	r1 := nodes[1].RequestCS()
	r2 := nodes[2].RequestCS()

	first := nodes[0].Deliver(r1[0])
	if len(first) != 1 || first[0].Kind != tme.Reply || first[0].To != 1 {
		t.Fatalf("reply to 1 = %v", first)
	}
	kept := first[0]

	// Valid across everything that is not a Deliver on this node, and the
	// other calls write buffers of their own: they never share this one.
	own := nodes[0].RequestCS()
	nodes[0].Step()
	nodes[1].Deliver(own[0])
	if first[0] != kept {
		t.Fatalf("reply changed before the next Deliver: %v, was %v", first[0], kept)
	}

	second := nodes[0].Deliver(r2[0])
	if len(second) != 1 || second[0].To != 2 {
		t.Fatalf("reply to 2 = %v", second)
	}
	if first[0] != second[0] {
		t.Fatalf("first result = %v after the next Deliver; it is documented to be overwritten by %v", first[0], second[0])
	}
	if kept.To != 1 || kept.Kind != tme.Reply {
		t.Fatalf("copied reply = %v", kept)
	}
	if own[0].Kind != tme.Request || own[1].Kind != tme.Request {
		t.Fatalf("RequestCS result was overwritten by Deliver: %v", own)
	}
}

// TestFanOutResultsValidUntilSameAction states the rest of tme.Node's
// aliasing contract: a RequestCS result survives any number of Deliver and
// Step calls and a ReleaseCS, and only the next RequestCS overwrites it; a
// ReleaseCS result likewise survives everything but the next ReleaseCS.
func TestFanOutResultsValidUntilSameAction(t *testing.T) {
	nodes := newCluster(3)
	req := nodes[0].RequestCS()
	keptReq := append([]tme.Message(nil), req...)

	// Node 1's later request is deferred; then every reply arrives.
	nodes[1].RequestCS()
	nodes[0].Deliver(tme.Message{Kind: tme.Request, TS: nodes[1].REQ(), From: 1, To: 0})
	for _, m := range keptReq {
		for _, r := range nodes[m.To].Deliver(m) {
			nodes[0].Deliver(r)
			nodes[0].Step()
		}
	}
	if nodes[0].Phase() != tme.Eating {
		t.Fatalf("node 0 did not enter: %v", nodes[0].Phase())
	}
	rel := nodes[0].ReleaseCS()
	if len(rel) != 1 || rel[0].To != 1 || rel[0].Kind != tme.Reply {
		t.Fatalf("release = %v, want the deferred reply to 1", rel)
	}
	keptRel := append([]tme.Message(nil), rel...)
	if !slices.Equal(req, keptReq) {
		t.Fatalf("RequestCS result after Deliver, Step and ReleaseCS = %v, want %v", req, keptReq)
	}

	// The next request overwrites the first one's result and no other.
	next := nodes[0].RequestCS()
	nodes[0].Deliver(tme.Message{Kind: tme.Request, TS: ltime.Timestamp{Clock: 99, PID: 2}, From: 2, To: 0})
	nodes[0].Step()
	if !slices.Equal(rel, keptRel) {
		t.Fatalf("ReleaseCS result after RequestCS, Deliver and Step = %v, want %v", rel, keptRel)
	}
	if req[0] != next[0] || req[0].TS == keptReq[0].TS {
		t.Fatalf("first RequestCS result = %v after the next RequestCS; it is documented to be overwritten by %v", req, next)
	}
}

// TestRequestReleaseAllocateNothing pins what the contract buys on the send
// side: after the first cycle has made a node's buffers, a whole CS cycle
// (request, the peers' replies, entry, and a release with a deferred reply)
// allocates nothing.
func TestRequestReleaseAllocateNothing(t *testing.T) {
	nodes := newCluster(3)
	cycle := func() {
		for _, m := range nodes[0].RequestCS() {
			for _, r := range nodes[m.To].Deliver(m) { // thinking peers reply at once
				nodes[0].Deliver(r)
			}
		}
		// A request later than node 0's is deferred until its release.
		later := ltime.Timestamp{Clock: nodes[0].REQ().Clock + 1, PID: 1}
		nodes[0].Deliver(tme.Message{Kind: tme.Request, TS: later, From: 1, To: 0})
		if entered, _ := nodes[0].Step(); !entered {
			t.Fatal("node 0 did not enter")
		}
		if rel := nodes[0].ReleaseCS(); len(rel) != 1 || rel[0].To != 1 {
			t.Fatalf("release = %v, want the deferred reply to 1", rel)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a request+release cycle allocates %.1f, want 0", allocs)
	}
}

// TestImmediateReplyAllocatesNothing pins what the contract buys: receiving
// a request and replying at once is allocation-free.
func TestImmediateReplyAllocatesNothing(t *testing.T) {
	nodes := newCluster(2)
	req := nodes[0].RequestCS()[0]
	allocs := testing.AllocsPerRun(100, func() {
		if out := nodes[1].Deliver(req); len(out) != 1 {
			t.Fatalf("no immediate reply: %v", out)
		}
	})
	if allocs != 0 {
		t.Fatalf("immediately-replied Deliver allocates %.1f, want 0", allocs)
	}
}
