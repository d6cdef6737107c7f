// Package tme defines the timestamp-based distributed mutual exclusion (TME)
// problem domain of DSN 2001 §3: client phases, the message vocabulary of
// Lspec, and — centrally — the SpecView interface, which is the *only* state
// a graybox wrapper may read.
//
// Graybox-ness is enforced by the type system: internal/wrapper receives a
// SpecView, never a concrete *ra.Node or *lamport.Node, so a wrapper
// physically cannot depend on implementation variables such as RA's deferred
// set or Lamport's request queue. Any implementation of Lspec exposes the
// same view, which is why one wrapper stabilizes them all (Theorem 8,
// Corollary 11).
package tme

import (
	"fmt"

	"github.com/graybox-stabilization/graybox/internal/ltime"
)

// Phase is the client phase of a process: exactly one of thinking, hungry,
// or eating holds at any time (Structural Spec).
type Phase int

// Client phases. They start at one so the zero value is detectably invalid
// (useful when fault injection scrambles a phase variable). Switches
// dispatching over phases must name all three or panic on the rest:
// corrupted phases may hold any value, so the escape arm is a default that
// handles them deliberately, never one that absorbs a real phase.
//
//gblint:kindset tme-phase
const (
	Thinking Phase = iota + 1
	Hungry
	Eating
)

// Valid reports whether p is one of the three legal phases.
func (p Phase) Valid() bool { return p >= Thinking && p <= Eating }

// String renders the phase using the paper's predicate names.
func (p Phase) String() string {
	switch p {
	case Thinking:
		return "t"
	case Hungry:
		return "h"
	case Eating:
		return "e"
	default:
		return fmt.Sprintf("invalid(%d)", int(p))
	}
}

// Kind discriminates the message vocabulary of Lspec and its two reference
// implementations. Request and Reply are required by Request Spec / Reply
// Spec; Release is used only by Lamport ME.
type Kind int

// Message kinds. Corruption can forge kinds outside this set, so receivers
// route unknowns through an explicit default — but every declared kind
// must have its own arm (gblint's exhaustiveness pass enforces it).
//
//gblint:kindset tme-msg
const (
	Request Kind = iota + 1
	Reply
	Release
)

// String renders the kind name.
func (k Kind) String() string {
	switch k {
	case Request:
		return "request"
	case Reply:
		return "reply"
	case Release:
		return "release"
	default:
		return fmt.Sprintf("invalid(%d)", int(k))
	}
}

// Message is one interprocess message. TS carries the sender's REQ (for
// requests) or current logical clock (for replies and releases), per the
// paper's send(REQ_j, j, k) notation.
type Message struct {
	Kind Kind
	// TS is the timestamp payload.
	TS ltime.Timestamp
	// From and To are the source and destination process ids.
	From, To int
	// Resource is the shard (critical section) this message belongs to.
	// Each shard runs an independent protocol instance; substrates route
	// inbound messages to the instance named here. The single-CS system of
	// the paper is shard 0, which keeps legacy frames byte-identical.
	Resource int
}

// String renders the message compactly, e.g. "request(3.1) 1->2"; sharded
// messages append the resource id, e.g. "request(3.1) 1->2 @2".
func (m Message) String() string {
	if m.Resource != 0 {
		return fmt.Sprintf("%s(%s) %d->%d @%d", m.Kind, m.TS, m.From, m.To, m.Resource)
	}
	return fmt.Sprintf("%s(%s) %d->%d", m.Kind, m.TS, m.From, m.To)
}

// SpecView exposes exactly the Lspec-level variables of one process:
// its phase (h.j / e.j / t.j), REQ_j, and its local copies j.REQ_k. This is
// the wrapper's entire window into a process — graybox knowledge.
type SpecView interface {
	// ID returns the process id j.
	ID() int
	// N returns the number of processes in the system.
	N() int
	// Phase returns the current client phase of the process.
	Phase() Phase
	// REQ returns REQ_j: the timestamp of the current request if the
	// process is hungry or eating, else the timestamp of its most recent
	// event (CS Release Spec).
	REQ() ltime.Timestamp
	// LocalREQ returns j.REQ_k, the process's latest information about
	// REQ_k, and whether a value for k has been received since the last
	// local request was issued (the received(j.REQ_k) flag of Lspec).
	LocalREQ(k int) (ts ltime.Timestamp, received bool)
}

// Node is a TME process as driven by an execution substrate (the
// discrete-event simulator or the goroutine runtime). Calls on one node are
// serialized: one at a time, never concurrently.
//
// RequestCS, ReleaseCS and Deliver each return a result valid only until
// the next call of the same method on the node: an implementation may
// return a view of a buffer that method owns and overwrite it then, so that
// none of the three allocates in steady state. A caller sends (or copies)
// the messages before it calls that method again. The three buffers are
// disjoint, so a result survives every call of the other methods. That is
// what the live runtime relies on: a client goroutine routes its RequestCS
// or ReleaseCS result outside the node's lock while the process's event
// loop delivers to the node (see runtime.Cluster.RequestShard). Step's
// result is the caller's to keep.
type Node interface {
	SpecView

	// RequestCS performs the client's "Request CS" action; it is a no-op
	// unless the process is thinking. It returns the messages to send,
	// valid until the next RequestCS.
	RequestCS() []Message
	// ReleaseCS performs the client's "Release CS" action; it is a no-op
	// unless the process is eating. It returns the messages to send, valid
	// until the next ReleaseCS.
	ReleaseCS() []Message
	// Deliver handles one incoming message and returns the messages to
	// send in response, valid until the next Deliver.
	Deliver(m Message) []Message
	// Step attempts one internal action (CS entry). entered reports
	// whether the process transitioned hungry→eating.
	Step() (entered bool, msgs []Message)
}

// ClockHolder is implemented by nodes that expose their logical clock's
// current value ts.j. It exists for spec monitors (Timestamp Spec, CS
// Release Spec); it is deliberately NOT part of SpecView, so wrappers cannot
// depend on it.
type ClockHolder interface {
	// ClockNow returns the timestamp of the most current event at the
	// process (the paper's ts.j).
	ClockNow() ltime.Timestamp
}

// Corruptible is implemented by nodes that support transient-state
// corruption faults: Corrupt overwrites implementation state with the given
// arbitrary values, and may scramble implementation-internal structures
// (queues, sets) as it sees fit. Values are supplied by internal/fault.
type Corruptible interface {
	// Corrupt applies a transient state corruption described by c.
	Corrupt(c Corruption)
}

// Corruption describes one transient state-corruption fault, produced by the
// seeded fault injector. Implementations apply the fields they understand.
type Corruption struct {
	// Phase, if Valid, overwrites the client phase.
	Phase Phase
	// REQ, if non-nil, overwrites REQ_j.
	REQ *ltime.Timestamp
	// LocalREQ maps k → forged j.REQ_k values to install.
	LocalREQ map[int]ltime.Timestamp
	// DropReceived lists k whose received(j.REQ_k) flag is cleared.
	DropReceived []int
	// ForgeReceived lists k whose received(j.REQ_k) flag is set.
	ForgeReceived []int
	// Clock, if non-nil, overwrites the logical clock scalar.
	Clock *uint64
	// ScrambleInternal asks the node to permute/damage implementation-
	// internal structures (RA's deferred set, Lamport's request queue)
	// using the given seed.
	ScrambleInternal bool
	// Seed drives any randomized scrambling deterministically.
	Seed int64
}

// SpecState is a plain-data snapshot of one process's SpecView plus the
// bookkeeping monitors need. Snapshots decouple monitors from live nodes.
type SpecState struct {
	ID    int
	Phase Phase
	REQ   ltime.Timestamp
	// Local[k] is j.REQ_k; Received[k] is the received flag. Index j
	// itself is unused.
	Local    []ltime.Timestamp
	Received []bool
	// TS is ts.j when the node is a ClockHolder (HasTS true).
	TS    ltime.Timestamp
	HasTS bool
}

// Snapshot captures the SpecView of v into a SpecState.
func Snapshot(v SpecView) SpecState {
	var s SpecState
	SnapshotInto(v, &s)
	return s
}

// SnapshotInto fills s from v, reusing s's slices when they are large
// enough (for allocation-free periodic snapshots).
func SnapshotInto(v SpecView, s *SpecState) {
	n := v.N()
	s.ID = v.ID()
	s.Phase = v.Phase()
	s.REQ = v.REQ()
	if cap(s.Local) < n {
		s.Local = make([]ltime.Timestamp, n)
	}
	s.Local = s.Local[:n]
	if cap(s.Received) < n {
		s.Received = make([]bool, n)
	}
	s.Received = s.Received[:n]
	for k := 0; k < n; k++ {
		if k == s.ID {
			s.Local[k], s.Received[k] = ltime.Timestamp{}, false
			continue
		}
		s.Local[k], s.Received[k] = v.LocalREQ(k)
	}
	s.TS, s.HasTS = ltime.Timestamp{}, false
	if ch, ok := v.(ClockHolder); ok {
		s.TS, s.HasTS = ch.ClockNow(), true
	}
}
