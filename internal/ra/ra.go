// Package ra implements the Ricart–Agrawala timestamp-based mutual exclusion
// program RA_ME exactly as given in DSN 2001 §5.1, using the Lspec variables
// REQ_j, j.REQ_k, received(j.REQ_k), and the client phase, plus a logical
// clock lc.j. The deferred set is the paper's "always section": it is
// computed from those variables rather than stored, so transient state
// corruption cannot make it inconsistent with them.
//
// RA_ME everywhere implements Lspec (Theorem 9), so the graybox wrapper of
// internal/wrapper stabilizes it without knowing anything in this package.
package ra

import (
	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/seeded"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

// Node is one Ricart–Agrawala process. Construct with New; drive it from a
// single goroutine (the simulator or runtime serializes all calls).
type Node struct {
	id, n    int
	clock    *ltime.Clock
	phase    tme.Phase
	req      ltime.Timestamp
	local    []ltime.Timestamp // j.REQ_k
	received []bool            // received(j.REQ_k): k's request pending a reply
	// Each producer writes its messages into its own buffer, valid until
	// the same action runs again (tme.Node's contract).
	reply    [1]tme.Message // Deliver's immediate reply
	requests []tme.Message  // RequestCS's fan-out
	replies  []tme.Message  // ReleaseCS's deferred replies
}

var (
	_ tme.Node        = (*Node)(nil)
	_ tme.Corruptible = (*Node)(nil)
	_ tme.ClockHolder = (*Node)(nil)
)

// New returns process id of an n-process RA_ME system in the Init state of
// Lspec: thinking, REQ_j = 0 (the timestamp of the empty event history at
// j, i.e. clock 0 at j), all local copies 0, nothing received.
func New(id, n int) *Node {
	clock := ltime.NewClock(id)
	return &Node{
		id:       id,
		n:        n,
		clock:    clock,
		phase:    tme.Thinking,
		req:      clock.Now(), // CS Release Spec: t.j ⇒ REQ_j = ts.j
		local:    make([]ltime.Timestamp, n),
		received: make([]bool, n),
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

// LocalREQ returns j.REQ_k and the received(j.REQ_k) flag.
func (nd *Node) LocalREQ(k int) (ltime.Timestamp, bool) {
	if k < 0 || k >= nd.n || k == nd.id {
		return ltime.Zero, false
	}
	return nd.local[k], nd.received[k]
}

// deferredSet returns the paper's always-section set
// {k : k≠j ∧ received(j.REQ_k) ∧ REQ_j lt j.REQ_k}, in ascending order.
func (nd *Node) deferredSet() []int {
	var out []int
	for k := 0; k < nd.n; k++ {
		if k != nd.id && nd.received[k] && nd.req.Less(nd.local[k]) {
			out = append(out, k)
		}
	}
	return out
}

// RequestCS performs the "Request CS" action: when thinking, take a fresh
// timestamp as REQ_j, become hungry, and send a request to every other
// process. It is a no-op in any other phase. The fan-out is written into
// the node's own buffer, valid until the next RequestCS.
func (nd *Node) RequestCS() []tme.Message {
	if nd.phase != tme.Thinking {
		return nil
	}
	nd.req = nd.clock.Tick()
	nd.phase = tme.Hungry
	msgs := nd.requests[:0]
	if msgs == nil {
		msgs = make([]tme.Message, 0, nd.n-1)
	}
	for k := 0; k < nd.n; k++ {
		if k != nd.id {
			msgs = append(msgs, tme.Message{Kind: tme.Request, TS: nd.req, From: nd.id, To: k})
		}
	}
	nd.requests = msgs
	return msgs
}

// ReleaseCS performs the "Release CS" action: when eating, send the deferred
// replies, clear the received flags, reset REQ_j to the most current event's
// timestamp, and return to thinking. It is a no-op in any other phase. The
// replies are written into the node's own buffer, valid until the next
// ReleaseCS.
func (nd *Node) ReleaseCS() []tme.Message {
	if nd.phase != tme.Eating {
		return nil
	}
	ts := nd.clock.Tick() // the release event
	msgs := nd.replies[:0]
	// Inline the deferred-set membership test (same predicate as
	// deferredSet) so releasing builds no set.
	for k := 0; k < nd.n; k++ {
		if k != nd.id && nd.received[k] && nd.req.Less(nd.local[k]) {
			if msgs == nil {
				msgs = make([]tme.Message, 0, nd.n-1)
			}
			msgs = append(msgs, tme.Message{Kind: tme.Reply, TS: ts, From: nd.id, To: k})
		}
	}
	for k := range nd.received {
		nd.received[k] = false
	}
	nd.req = nd.clock.Now() // CS Release Spec: t.j ⇒ REQ_j = ts.j
	nd.phase = tme.Thinking
	if len(msgs) == 0 {
		return nil
	}
	nd.replies = msgs
	return msgs
}

// Deliver handles one incoming message and returns the responses to send,
// valid until the next Deliver on this node (tme.Node's contract): an
// immediate reply is written into the node's own one-message buffer, which
// is what keeps the receive path allocation-free. Unknown kinds and
// out-of-range senders are dropped (they can only arise from
// message-corruption faults).
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
		return nil
	case tme.Release:
		// Ricart–Agrawala has no release messages: permission travels in
		// deferred replies. One on the wire is a corruption artifact.
		return nil
	default:
		return nil // forged kind (message corruption): drop
	}
}

// receiveRequest is the paper's receive-request action.
func (nd *Node) receiveRequest(k int, ts ltime.Timestamp) []tme.Message {
	nd.clock.Observe(ts)
	nd.received[k] = true
	nd.local[k] = ts
	if nd.phase == tme.Thinking {
		// CS Release Spec: while thinking, REQ_j tracks the most
		// current event.
		nd.req = nd.clock.Now()
	}
	if nd.local[k].Less(nd.req) {
		// k's request is earlier: reply now, discharging the obligation.
		nd.received[k] = false
		nd.reply[0] = tme.Message{Kind: tme.Reply, TS: nd.req, From: nd.id, To: k}
		return nd.reply[:]
	}
	// Our request is earlier (or we are eating): defer; k stays in the
	// deferred set until Release CS.
	return nil
}

// receiveReply is the paper's receive-reply action: record k's timestamp as
// j.REQ_k. No message is sent — REQ_j is always less than the reply value.
func (nd *Node) receiveReply(k int, ts ltime.Timestamp) {
	nd.clock.Observe(ts)
	nd.local[k] = ts
	if nd.phase == tme.Thinking {
		nd.req = nd.clock.Now()
	}
}

// Step attempts the "Grant CS" internal action (CS Entry Spec): a hungry
// process whose request precedes every local copy enters the critical
// section.
func (nd *Node) Step() (entered bool, msgs []tme.Message) {
	if nd.phase != tme.Hungry {
		return false, nil
	}
	for k := 0; k < nd.n; k++ {
		if k != nd.id && !nd.req.Less(nd.local[k]) {
			return false, nil
		}
	}
	nd.phase = tme.Eating
	return true, nil
}

// Corrupt applies a transient state-corruption fault. It may leave the node
// in an arbitrary (but type-correct) state; recovery is the wrapper's job.
func (nd *Node) Corrupt(c tme.Corruption) {
	if c.Phase != 0 {
		// Invalid phases are deliberately allowed: they model corruption
		// that breaks Structural Spec, which the level-1 PhaseGuard
		// wrapper (internal/wrapper) exists to repair.
		nd.phase = c.Phase
	}
	if c.REQ != nil {
		nd.req = *c.REQ
	}
	for k, ts := range c.LocalREQ {
		if k >= 0 && k < nd.n && k != nd.id {
			nd.local[k] = ts
		}
	}
	for _, k := range c.DropReceived {
		if k >= 0 && k < nd.n {
			nd.received[k] = false
		}
	}
	for _, k := range c.ForgeReceived {
		if k >= 0 && k < nd.n && k != nd.id {
			nd.received[k] = true
		}
	}
	if c.Clock != nil {
		nd.clock.Corrupt(*c.Clock)
	}
	if c.ScrambleInternal {
		var st seeded.Stream
		rng := st.Init(c.Seed)
		for k := 0; k < nd.n; k++ {
			if k == nd.id {
				continue
			}
			nd.local[k] = ltime.Timestamp{Clock: uint64(rng.Intn(64)), PID: k}
			nd.received[k] = rng.Intn(2) == 0
		}
	}
}
