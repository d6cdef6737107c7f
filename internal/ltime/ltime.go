// Package ltime implements Lamport logical time: scalar logical clocks and
// the totally ordered timestamps required by the Timestamp Spec of the
// graybox TME specification (Arora, Demirbas, Kulkarni, DSN 2001, §3.2).
//
// A Timestamp pairs a logical clock value with the process id that produced
// it. The "less-than" relation lt induces a total order:
//
//	lc:e lt lc:f  ≡  lc:e < lc:f ∨ (lc:e = lc:f ∧ pid:e < pid:f)
//
// and logical clocks satisfy happened-before: e hb f ⇒ lc:e lt lc:f.
package ltime

import (
	"strconv"
	"strings"
)

// Timestamp is a totally ordered logical timestamp. The zero value is the
// distinguished minimum timestamp (the paper's initial REQ value of 0).
type Timestamp struct {
	// Clock is the scalar Lamport clock value of the event.
	Clock uint64
	// PID is the id of the process at which the event occurred; it breaks
	// ties so that lt is a total order.
	PID int
}

// Zero is the minimum timestamp, used as the initial value of every REQ
// variable in Lspec's Init condition.
var Zero = Timestamp{}

// Less reports whether t lt u in the total order of the Timestamp Spec.
func (t Timestamp) Less(u Timestamp) bool {
	if t.Clock != u.Clock {
		return t.Clock < u.Clock
	}
	return t.PID < u.PID
}

// LessEq reports t lt u ∨ t = u.
func (t Timestamp) LessEq(u Timestamp) bool { return t == u || t.Less(u) }

// Compare returns -1, 0, or +1 as t is less than, equal to, or greater than u.
func (t Timestamp) Compare(u Timestamp) int {
	switch {
	case t == u:
		return 0
	case t.Less(u):
		return -1
	default:
		return 1
	}
}

// IsZero reports whether t is the minimum timestamp.
func (t Timestamp) IsZero() bool { return t == Zero }

// String renders the timestamp as "clock.pid", e.g. "17.3".
func (t Timestamp) String() string {
	var b strings.Builder
	b.WriteString(strconv.FormatUint(t.Clock, 10))
	b.WriteByte('.')
	b.WriteString(strconv.Itoa(t.PID))
	return b.String()
}

// Clock is a Lamport logical clock for one process. It produces timestamps
// that satisfy the Timestamp Spec: totally ordered and consistent with
// happened-before. The zero value is not usable; construct with NewClock.
//
// Clock is not safe for concurrent use; each process owns exactly one and
// drives it from its own event loop (or the simulator does, single-threaded).
type Clock struct {
	pid int
	val uint64
}

// NewClock returns a logical clock for process pid, starting at 0.
func NewClock(pid int) *Clock {
	return &Clock{pid: pid}
}

// Now returns the timestamp of the most recent event at this process without
// advancing the clock (the paper's ts.j).
func (c *Clock) Now() Timestamp {
	return Timestamp{Clock: c.val, PID: c.pid}
}

// Tick records a new local event and returns its timestamp. Successive Tick
// values strictly increase, so ts values never decrease over time, as the
// Timestamp Spec demands.
func (c *Clock) Tick() Timestamp {
	c.val++
	return Timestamp{Clock: c.val, PID: c.pid}
}

// Observe merges a timestamp received in a message and records the receive
// event, returning its timestamp. This is the standard Lamport rule
// lc := max(lc, msg) + 1, which establishes e hb f ⇒ lc:e lt lc:f across
// send/receive pairs.
func (c *Clock) Observe(ts Timestamp) Timestamp {
	if ts.Clock > c.val {
		c.val = ts.Clock
	}
	return c.Tick()
}

// Corrupt arbitrarily overwrites the clock value. It models the transient
// state-corruption faults of the TME fault model and exists only so fault
// injectors can reach the clock; correct code never calls it.
func (c *Clock) Corrupt(val uint64) {
	c.val = val
}
