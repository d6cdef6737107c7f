// Package lamport implements Lamport's timestamp-based mutual exclusion
// program Lamport_ME as modified in DSN 2001 §5.2 so that it everywhere
// implements Lspec (Theorem 10):
//
//  1. Insert keeps at most one request per process in request_queue.j, so a
//     fresh request from k corrects any old (possibly corrupted) entry.
//  2. A process enters the CS when it holds grants from everyone and its
//     request is equal to or earlier than the head of its request queue
//     (rather than exactly at the head), so CS Entry Spec holds in any
//     state.
//
// The Lspec variable j.REQ_k is not stored; the paper defines the relation
//
//	REQ_j lt j.REQ_k  ≡  grant.j.k ∧ (REQ_k is not ahead of REQ_j in
//	                                   request_queue.j)
//
// We expose a concrete j.REQ_k consistent with that definition: k's queued
// request if one is queued, else the latest timestamp heard from k if
// grant.j.k holds, else the zero timestamp (nothing known). This gives the
// graybox wrapper the same SpecView it gets from RA_ME.
package lamport

import (
	"sort"

	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/seeded"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

// Node is one Lamport ME process. Construct with New; all methods are
// driven from a single goroutine.
type Node struct {
	id, n int
	clock ltime.Clock
	phase tme.Phase
	req   ltime.Timestamp
	// queue is request_queue.j: pending requests ordered by timestamp,
	// at most one per process (modification 1).
	queue []ltime.Timestamp
	// grant[k] is grant.j.k: whether k has replied to our current request.
	grant []bool
	// heard[k] is the latest timestamp received from k in a reply or
	// release message; it realizes j.REQ_k when k has nothing queued.
	heard []ltime.Timestamp
	// Each producer writes its messages into its own buffer, valid until
	// the same action runs again (tme.Node's contract).
	reply    [1]tme.Message // Deliver's immediate reply
	requests []tme.Message  // RequestCS's fan-out
	releases []tme.Message  // ReleaseCS's fan-out
}

var (
	_ tme.Node        = (*Node)(nil)
	_ tme.Corruptible = (*Node)(nil)
	_ tme.ClockHolder = (*Node)(nil)
)

// New returns process id of an n-process Lamport_ME system in the Init
// state: thinking, REQ_j = 0 (clock 0 at j), empty queue, no grants.
func New(id, n int) *Node {
	clock := ltime.NewClock(id)
	// The queue holds at most one request per process, so it never grows
	// past n: it shares one allocation with heard.
	ts := make([]ltime.Timestamp, 2*n)
	return &Node{
		id:    id,
		n:     n,
		clock: clock,
		phase: tme.Thinking,
		req:   clock.Now(), // CS Release Spec: t.j ⇒ REQ_j = ts.j
		queue: ts[n:n],
		grant: make([]bool, n),
		heard: ts[:n:n],
	}
}

// ID returns the process id j.
func (nd *Node) ID() int { return nd.id }

// N returns the number of processes.
func (nd *Node) N() int { return nd.n }

// Phase returns the current client phase.
func (nd *Node) Phase() tme.Phase { return nd.phase }

// REQ returns REQ_j.
func (nd *Node) REQ() ltime.Timestamp { return nd.req }

// ClockNow returns ts.j, the timestamp of the most current event (for spec
// monitors, not for wrappers).
func (nd *Node) ClockNow() ltime.Timestamp { return nd.clock.Now() }

// LocalREQ returns the realized j.REQ_k and whether a request from k is
// currently recorded. It must agree with the paper's definition
//
//	REQ_j lt j.REQ_k  ≡  grant.j.k ∧ (REQ_k not ahead in request_queue.j)
//
// in particular j.REQ_k may read as later than REQ_j ONLY under a grant:
// without one, a queued-but-later entry still reads as stale (zero), so the
// wrapper's guard stays open and W keeps pinging k until k's reply restores
// the grant. (Returning the raw queue entry here once deadlocked an
// all-hungry cluster whose grants had been corrupted away: every local copy
// read "later", every wrapper guard closed, and no reply was ever sent.)
func (nd *Node) LocalREQ(k int) (ltime.Timestamp, bool) {
	if k < 0 || k >= nd.n || k == nd.id {
		return ltime.Zero, false
	}
	if ts, ok := nd.queued(k); ok && (nd.grant[k] || ts.Less(nd.req)) {
		return ts, true
	}
	if nd.grant[k] {
		return nd.heard[k], false
	}
	return ltime.Zero, false
}

// queued returns k's entry in the request queue, if any.
func (nd *Node) queued(k int) (ltime.Timestamp, bool) {
	for _, ts := range nd.queue {
		if ts.PID == k {
			return ts, true
		}
	}
	return ltime.Zero, false
}

// insert places ts into the request queue, evicting any existing entry of
// the same process first (modification 1) and keeping timestamp order.
func (nd *Node) insert(ts ltime.Timestamp) {
	nd.removePID(ts.PID)
	i := sort.Search(len(nd.queue), func(i int) bool { return ts.Less(nd.queue[i]) })
	nd.queue = append(nd.queue, ltime.Timestamp{})
	copy(nd.queue[i+1:], nd.queue[i:])
	nd.queue[i] = ts
}

// removePID deletes any queued entry belonging to process k.
func (nd *Node) removePID(k int) {
	for i, ts := range nd.queue {
		if ts.PID == k {
			nd.queue = append(nd.queue[:i], nd.queue[i+1:]...)
			return
		}
	}
}

// RequestCS performs the "Request CS" action: take a fresh timestamp,
// enqueue it, clear grants, become hungry, and broadcast the request. The
// broadcast is written into the node's own buffer, valid until the next
// RequestCS.
func (nd *Node) RequestCS() []tme.Message {
	if nd.phase != tme.Thinking {
		return nil
	}
	nd.req = nd.clock.Tick()
	nd.insert(nd.req)
	for k := range nd.grant {
		nd.grant[k] = false
	}
	nd.phase = tme.Hungry
	nd.requests = nd.broadcast(nd.requests, tme.Request, nd.req)
	return nd.requests
}

// ReleaseCS performs the "Release CS" action: dequeue the own request,
// broadcast a release, and return to thinking. The broadcast is written
// into the node's own buffer, valid until the next ReleaseCS.
func (nd *Node) ReleaseCS() []tme.Message {
	if nd.phase != tme.Eating {
		return nil
	}
	nd.removePID(nd.id)
	ts := nd.clock.Tick()
	nd.releases = nd.broadcast(nd.releases, tme.Release, ts)
	nd.req = nd.clock.Now() // CS Release Spec: t.j ⇒ REQ_j = ts.j
	nd.phase = tme.Thinking
	return nd.releases
}

// broadcast overwrites buf with one kind message stamped ts to every other
// process, allocating only on a buffer's first use.
func (nd *Node) broadcast(buf []tme.Message, kind tme.Kind, ts ltime.Timestamp) []tme.Message {
	msgs := buf[:0]
	if msgs == nil {
		msgs = make([]tme.Message, 0, nd.n-1)
	}
	for k := 0; k < nd.n; k++ {
		if k != nd.id {
			msgs = append(msgs, tme.Message{Kind: kind, TS: ts, From: nd.id, To: k})
		}
	}
	return msgs
}

// Deliver handles one incoming message. The result is valid until the next
// Deliver on this node (tme.Node's contract): the immediate reply to a
// request is written into the node's own one-message buffer. Unknown kinds
// and out-of-range senders (message-corruption artifacts) are dropped.
func (nd *Node) Deliver(m tme.Message) []tme.Message {
	k := m.From
	if k < 0 || k >= nd.n || k == nd.id {
		return nil
	}
	switch m.Kind {
	case tme.Request:
		return nd.receiveRequest(k, m.TS)
	case tme.Reply:
		nd.receiveReply(k, m.TS)
	case tme.Release:
		nd.receiveRelease(k, m.TS)
	}
	return nil
}

// receiveRequest enqueues k's request and replies immediately.
func (nd *Node) receiveRequest(k int, ts ltime.Timestamp) []tme.Message {
	nd.clock.Observe(ts)
	// Defend the queue against corrupted messages claiming another pid:
	// index the entry under the channel's true sender.
	ts.PID = k
	nd.insert(ts)
	if nd.phase == tme.Thinking {
		nd.req = nd.clock.Now()
	}
	nd.reply[0] = tme.Message{Kind: tme.Reply, TS: nd.clock.Now(), From: nd.id, To: k}
	return nd.reply[:]
}

// receiveReply grants k if the reply postdates our request (stale replies
// from before the current request are ignored, per the paper's guard
// REQ_j lt lc:k).
func (nd *Node) receiveReply(k int, ts ltime.Timestamp) {
	nd.clock.Observe(ts)
	if nd.req.Less(ts) {
		nd.grant[k] = true
	}
	if nd.heard[k].Less(ts) {
		nd.heard[k] = ts
	}
	if nd.phase == tme.Thinking {
		nd.req = nd.clock.Now()
	}
}

// receiveRelease removes k's queued request wherever it sits (the robust
// reading of the paper's Dequeue under modification 1).
func (nd *Node) receiveRelease(k int, ts ltime.Timestamp) {
	nd.clock.Observe(ts)
	nd.removePID(k)
	if nd.heard[k].Less(ts) {
		nd.heard[k] = ts
	}
	if nd.phase == tme.Thinking {
		nd.req = nd.clock.Now()
	}
}

// Step attempts CS entry: hungry, granted by all, and the own request is
// equal to or earlier than the queue head (modification 2).
func (nd *Node) Step() (entered bool, msgs []tme.Message) {
	if nd.phase != tme.Hungry {
		return false, nil
	}
	for k := 0; k < nd.n; k++ {
		if k != nd.id && !nd.grant[k] {
			return false, nil
		}
	}
	if len(nd.queue) > 0 && nd.queue[0].Less(nd.req) {
		return false, nil
	}
	nd.phase = tme.Eating
	return true, nil
}

// Corrupt applies a transient state-corruption fault.
func (nd *Node) Corrupt(c tme.Corruption) {
	if c.Phase != 0 {
		// Invalid phases model corruption breaking Structural Spec; the
		// level-1 PhaseGuard wrapper repairs them.
		nd.phase = c.Phase
	}
	if c.REQ != nil {
		nd.req = *c.REQ
	}
	for k, ts := range c.LocalREQ {
		if k >= 0 && k < nd.n && k != nd.id {
			// Realize a forged j.REQ_k as a forged queue entry.
			ts.PID = k
			nd.insert(ts)
		}
	}
	for _, k := range c.DropReceived {
		if k >= 0 && k < nd.n {
			nd.removePID(k)
			nd.grant[k] = false
		}
	}
	for _, k := range c.ForgeReceived {
		if k >= 0 && k < nd.n && k != nd.id {
			nd.grant[k] = true
		}
	}
	if c.Clock != nil {
		nd.clock.Corrupt(*c.Clock)
	}
	if c.ScrambleInternal {
		var st seeded.Stream
		rng := st.Init(c.Seed)
		nd.queue = nd.queue[:0]
		for k := 0; k < nd.n; k++ {
			if k == nd.id {
				continue
			}
			if rng.Intn(2) == 0 {
				nd.insert(ltime.Timestamp{Clock: uint64(rng.Intn(64)), PID: k})
			}
			nd.grant[k] = rng.Intn(2) == 0
			nd.heard[k] = ltime.Timestamp{Clock: uint64(rng.Intn(64)), PID: k}
		}
	}
}
