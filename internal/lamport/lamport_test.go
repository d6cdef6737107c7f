package lamport

import (
	"slices"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

// pump delivers all outstanding messages synchronously until quiescence.
func pump(t *testing.T, nodes []*Node, pending []tme.Message) (entries int) {
	t.Helper()
	for len(pending) > 0 {
		m := pending[0]
		pending = pending[1:]
		out := nodes[m.To].Deliver(m)
		pending = append(pending, out...)
		for _, nd := range nodes {
			if ok, msgs := nd.Step(); ok {
				entries++
				pending = append(pending, msgs...)
			}
		}
	}
	return entries
}

func newCluster(n int) []*Node {
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = New(i, n)
	}
	return nodes
}

func TestInitState(t *testing.T) {
	nd := New(2, 4)
	if nd.ID() != 2 || nd.N() != 4 || nd.Phase() != tme.Thinking {
		t.Error("init header wrong")
	}
	if got := nd.REQ(); got.Clock != 0 || got.PID != 2 {
		t.Errorf("initial REQ = %v, want 0.2", got)
	}
	if len(nd.queue) != 0 {
		t.Error("init queue not empty")
	}
	for k := 0; k < 4; k++ {
		if ts, pending := nd.LocalREQ(k); !ts.IsZero() || pending {
			t.Errorf("LocalREQ(%d) = (%v,%v)", k, ts, pending)
		}
	}
}

func TestRequestEnqueuesOwnEntry(t *testing.T) {
	nd := New(0, 3)
	msgs := nd.RequestCS()
	if len(msgs) != 2 {
		t.Fatalf("sent %d, want 2", len(msgs))
	}
	q := nd.queue
	if len(q) != 1 || q[0] != nd.REQ() {
		t.Fatalf("queue = %v, want own request", q)
	}
	if nd.RequestCS() != nil {
		t.Error("second RequestCS not a no-op")
	}
}

func TestSoloRound(t *testing.T) {
	nodes := newCluster(3)
	entries := pump(t, nodes, nodes[1].RequestCS())
	if entries != 1 || nodes[1].Phase() != tme.Eating {
		t.Fatalf("entries=%d phase=%v", entries, nodes[1].Phase())
	}
	rel := nodes[1].ReleaseCS()
	if len(rel) != 2 {
		t.Fatalf("release broadcast %d, want 2", len(rel))
	}
	for _, m := range rel {
		if m.Kind != tme.Release {
			t.Errorf("release message kind = %v", m.Kind)
		}
	}
	pump(t, nodes, rel)
	// Releases must clear node 1's entry everywhere.
	for _, nd := range nodes {
		for _, q := range nd.queue {
			if q.PID == 1 {
				t.Errorf("node %d still queues 1's request", nd.ID())
			}
		}
	}
}

func TestMutualExclusionUnderContention(t *testing.T) {
	nodes := newCluster(2)
	m0 := nodes[0].RequestCS()
	m1 := nodes[1].RequestCS()
	entries := pump(t, nodes, append(m0, m1...))
	if entries != 1 {
		t.Fatalf("entries = %d, want 1", entries)
	}
	if nodes[0].Phase() != tme.Eating || nodes[1].Phase() != tme.Hungry {
		t.Fatalf("tie must go to pid 0: %v %v", nodes[0].Phase(), nodes[1].Phase())
	}
	// Node 0 releases; node 1 must then enter.
	entries = pump(t, nodes, nodes[0].ReleaseCS())
	if entries != 1 || nodes[1].Phase() != tme.Eating {
		t.Fatalf("node 1 did not enter after release: %v", nodes[1].Phase())
	}
}

func TestFCFSOrder(t *testing.T) {
	const n = 5
	nodes := newCluster(n)
	// All request in pid order before any delivery: entries must then
	// occur in timestamp (pid) order.
	var pending []tme.Message
	for _, nd := range nodes {
		pending = append(pending, nd.RequestCS()...)
	}
	for want := 0; want < n; want++ {
		entries := pump(t, nodes, pending)
		pending = nil
		if entries != 1 {
			t.Fatalf("round %d: entries = %d", want, entries)
		}
		if nodes[want].Phase() != tme.Eating {
			t.Fatalf("round %d: expected node %d eating", want, want)
		}
		pending = nodes[want].ReleaseCS()
	}
	pump(t, nodes, pending)
}

func TestInsertKeepsOneEntryPerProcess(t *testing.T) {
	nd := New(0, 3)
	// Two requests from process 1 (the second corrects the first —
	// modification 1).
	nd.Deliver(tme.Message{Kind: tme.Request, TS: ltime.Timestamp{Clock: 9, PID: 1}, From: 1, To: 0})
	nd.Deliver(tme.Message{Kind: tme.Request, TS: ltime.Timestamp{Clock: 4, PID: 1}, From: 1, To: 0})
	q := nd.queue
	if len(q) != 1 || q[0].Clock != 4 {
		t.Fatalf("queue = %v, want single corrected entry 4.1", q)
	}
}

func TestQueueSortedByTimestamp(t *testing.T) {
	nd := New(0, 4)
	nd.Deliver(tme.Message{Kind: tme.Request, TS: ltime.Timestamp{Clock: 9, PID: 1}, From: 1, To: 0})
	nd.Deliver(tme.Message{Kind: tme.Request, TS: ltime.Timestamp{Clock: 2, PID: 2}, From: 2, To: 0})
	nd.Deliver(tme.Message{Kind: tme.Request, TS: ltime.Timestamp{Clock: 5, PID: 3}, From: 3, To: 0})
	q := nd.queue
	for i := 1; i < len(q); i++ {
		if q[i].Less(q[i-1]) {
			t.Fatalf("queue out of order: %v", q)
		}
	}
}

func TestRequestMessagePIDSpoofingDefused(t *testing.T) {
	nd := New(0, 3)
	// A corrupted request from 1 claims pid 2 in its timestamp; the node
	// must index it under the true sender 1.
	nd.Deliver(tme.Message{Kind: tme.Request, TS: ltime.Timestamp{Clock: 5, PID: 2}, From: 1, To: 0})
	if ts, pending := nd.LocalREQ(1); !pending || ts.PID != 1 {
		t.Errorf("LocalREQ(1) = (%v,%v), want pending entry under pid 1", ts, pending)
	}
}

func TestStaleReplyIgnored(t *testing.T) {
	nd := New(0, 2)
	nd.RequestCS()
	// A reply with a timestamp at or before our request must not grant.
	nd.Deliver(tme.Message{Kind: tme.Reply, TS: ltime.Zero, From: 1, To: 0})
	if ok, _ := nd.Step(); ok {
		t.Fatal("entered on a stale reply")
	}
	// A later reply grants.
	nd.Deliver(tme.Message{Kind: tme.Reply, TS: ltime.Timestamp{Clock: 99, PID: 1}, From: 1, To: 0})
	if ok, _ := nd.Step(); !ok {
		t.Fatal("did not enter after valid grant")
	}
}

func TestModification2EntersWhenOwnEntryMissing(t *testing.T) {
	// Corruption may erase the own queue entry; with grants held, the
	// process must still be able to enter (REQ_j ≤ head vacuously or via
	// a later head) so CS Entry Spec holds in any state.
	nd := New(0, 2)
	nd.RequestCS()
	nd.Deliver(tme.Message{Kind: tme.Reply, TS: ltime.Timestamp{Clock: 99, PID: 1}, From: 1, To: 0})
	nd.Corrupt(tme.Corruption{DropReceived: []int{0}}) // drops own queue entry
	if ok, _ := nd.Step(); !ok {
		t.Fatal("modification 2 violated: could not enter with missing own entry")
	}
}

func TestEntryBlockedByEarlierHead(t *testing.T) {
	nd := New(0, 2)
	nd.Deliver(tme.Message{Kind: tme.Request, TS: ltime.Timestamp{Clock: 1, PID: 1}, From: 1, To: 0})
	nd.RequestCS()
	nd.Deliver(tme.Message{Kind: tme.Reply, TS: ltime.Timestamp{Clock: 99, PID: 1}, From: 1, To: 0})
	if ok, _ := nd.Step(); ok {
		t.Fatal("entered past an earlier queued request")
	}
	// Release from 1 unblocks.
	nd.Deliver(tme.Message{Kind: tme.Release, TS: ltime.Timestamp{Clock: 100, PID: 1}, From: 1, To: 0})
	if ok, _ := nd.Step(); !ok {
		t.Fatal("did not enter after release")
	}
}

func TestDeliverIgnoresGarbage(t *testing.T) {
	nd := New(0, 2)
	for _, m := range []tme.Message{
		{Kind: tme.Request, From: -1, To: 0},
		{Kind: tme.Request, From: 5, To: 0},
		{Kind: tme.Request, From: 0, To: 0},
		{Kind: tme.Kind(42), From: 1, To: 0},
	} {
		if out := nd.Deliver(m); out != nil {
			t.Errorf("Deliver(%v) = %v", m, out)
		}
	}
}

func TestReleaseCSOnlyWhenEating(t *testing.T) {
	nd := New(0, 2)
	if nd.ReleaseCS() != nil {
		t.Error("ReleaseCS while thinking produced messages")
	}
}

func TestLocalREQBounds(t *testing.T) {
	nd := New(1, 3)
	for _, k := range []int{-1, 1, 7} {
		if ts, p := nd.LocalREQ(k); !ts.IsZero() || p {
			t.Errorf("LocalREQ(%d) = (%v,%v)", k, ts, p)
		}
	}
}

func TestCorruptScrambleDeterministic(t *testing.T) {
	a, b := New(0, 4), New(0, 4)
	a.Corrupt(tme.Corruption{ScrambleInternal: true, Seed: 7})
	b.Corrupt(tme.Corruption{ScrambleInternal: true, Seed: 7})
	qa, qb := a.queue, b.queue
	if len(qa) != len(qb) {
		t.Fatal("scramble not deterministic (queue length)")
	}
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatal("scramble not deterministic (queue content)")
		}
	}
}

// Regression: an all-hungry cluster whose grants were corrupted away must
// still present stale local copies through SpecView, or the wrapper's guard
// closes on every node and the deadlock becomes permanent. Per the paper's
// definition, REQ_j lt j.REQ_k requires grant.j.k — a queued-but-later
// entry without a grant reads as stale.
func TestLocalREQStaleWithoutGrant(t *testing.T) {
	nd := New(0, 2)
	nd.RequestCS()
	// Process 1's later request is queued, but no grant from 1.
	later := ltime.Timestamp{Clock: 99, PID: 1}
	nd.Deliver(tme.Message{Kind: tme.Request, TS: later, From: 1, To: 0})
	nd.Corrupt(tme.Corruption{}) // no-op; grants were never set for this round
	ts, _ := nd.LocalREQ(1)
	if !ts.Less(nd.REQ()) {
		t.Fatalf("LocalREQ(1) = %v not less than REQ %v: wrapper guard would close without a grant",
			ts, nd.REQ())
	}
	// After a grant, the queued entry is the local copy.
	nd.Deliver(tme.Message{Kind: tme.Reply, TS: ltime.Timestamp{Clock: 100, PID: 1}, From: 1, To: 0})
	ts, pending := nd.LocalREQ(1)
	if ts != later || !pending {
		t.Fatalf("after grant: LocalREQ(1) = (%v,%v), want (%v,true)", ts, pending, later)
	}
}

func TestCorruptFields(t *testing.T) {
	nd := New(0, 3)
	ts := ltime.Timestamp{Clock: 11, PID: 0}
	clk := uint64(40)
	nd.Corrupt(tme.Corruption{
		Phase:    tme.Hungry,
		REQ:      &ts,
		LocalREQ: map[int]ltime.Timestamp{2: {Clock: 3, PID: 9}},
		Clock:    &clk,
	})
	if nd.Phase() != tme.Hungry || nd.REQ() != ts {
		t.Error("phase/REQ not corrupted")
	}
	got, pending := nd.LocalREQ(2)
	if !pending || got.PID != 2 || got.Clock != 3 {
		t.Errorf("forged local entry = (%v,%v)", got, pending)
	}
	nd.Corrupt(tme.Corruption{ForgeReceived: []int{1}})
	if ts, _ := nd.LocalREQ(1); ts != nd.heard[1] {
		t.Error("forged grant did not expose heard value")
	}
}

// TestDeliverResultValidUntilNextDeliver states tme.Node.Deliver's aliasing
// contract as this package uses it: the reply to a request lives in the
// node's own buffer, so it survives every other call on the node but not
// the next Deliver. A caller that needs it longer copies the message out.
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
	keptRel := append([]tme.Message(nil), rel...)
	if len(rel) != 2 || rel[0].Kind != tme.Release {
		t.Fatalf("release = %v, want a release to each peer", rel)
	}
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
// side: after the first cycle has made a node's buffers and queue capacity,
// a whole CS cycle (request, the peers' replies, entry, release) allocates
// nothing.
func TestRequestReleaseAllocateNothing(t *testing.T) {
	nodes := newCluster(3)
	cycle := func() {
		for _, m := range nodes[0].RequestCS() {
			for _, r := range nodes[m.To].Deliver(m) {
				nodes[0].Deliver(r)
			}
		}
		if entered, _ := nodes[0].Step(); !entered {
			t.Fatal("node 0 did not enter")
		}
		if rel := nodes[0].ReleaseCS(); len(rel) != 2 {
			t.Fatalf("release = %v, want a release to each peer", rel)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a request+release cycle allocates %.1f, want 0", allocs)
	}
}

// TestImmediateReplyAllocatesNothing pins what the contract buys: receiving
// a request (re-queued under the sender's pid) and replying is
// allocation-free once the request queue has its capacity.
func TestImmediateReplyAllocatesNothing(t *testing.T) {
	nodes := newCluster(2)
	req := nodes[0].RequestCS()[0]
	nodes[1].Deliver(req) // the queue grows once
	allocs := testing.AllocsPerRun(100, func() {
		if out := nodes[1].Deliver(req); len(out) != 1 {
			t.Fatalf("no reply: %v", out)
		}
	})
	if allocs != 0 {
		t.Fatalf("replied Deliver allocates %.1f, want 0", allocs)
	}
}
