// Package ring applies the paper's graybox method (§2.2) to a second
// problem: self-stabilizing token circulation on a unidirectional ring —
// mutual exclusion by token ownership, the problem family of Dijkstra's
// classic whitebox designs, redone graybox-style.
//
// # The local everywhere specification, TCspec
//
// Process i (successor (i+1) mod n) maintains two spec-level variables:
// holding (does i hold the token?) and seq_i (the highest token sequence
// number i has seen). The specification is local — each clause constrains
// one process — and everywhere — implementations satisfy it from any state:
//
//	Accept Spec:  on receiving token(s): if s > seq_i then seq_i := s and
//	              holding := true, else the token is discarded (stale or
//	              duplicate).
//	Forward Spec: holding is transient: eventually the process sends
//	              token(seq_i + 1) to its successor and stops holding.
//	Monotone Spec: seq_i never decreases.
//
// Sequence numbers strictly increase along the token's path, so Accept
// Spec's dedup guard is satisfiable everywhere and duplicated tokens die at
// the first process that has already seen newer.
//
// # The graybox wrapper
//
// Faults can lose the token (ring goes dead), duplicate it, or corrupt
// process state. The level-2 wrapper sits at the distinguished process 0
// and reads only TCspec variables:
//
//	W0 :: timer expired ∧ ¬holding.0  →  regenerate token(seq_0 + n);
//	                                     timer := δ
//
// The +n jump puts the regenerated token ahead of any copy of the old
// token still in flight (a token gains at most n−1 increments per lap), so
// spurious regenerations are harmless: the older token is discarded at its
// next hop past a process that accepted the newer one. A corrupted,
// too-high seq_x eventually falls behind the regenerated sequence numbers,
// which grow by ≥ n per period while the blockage lasts. Any implementation
// of TCspec composed with W0 therefore stabilizes to single-token
// circulation — the same Theorem-4 reasoning as TME, on a new problem.
package ring

import (
	"fmt"
)

// Token is the circulating token message.
type Token struct {
	// Seq is the token's sequence number (strictly increasing per hop).
	Seq uint64
}

// View is the graybox window into one ring process: exactly the TCspec
// variables. Wrappers receive a View, never a concrete node.
type View interface {
	// ID returns the process id.
	ID() int
	// N returns the ring size.
	N() int
	// Holding reports whether the process holds the token.
	Holding() bool
	// Seq returns seq_i, the highest sequence number seen.
	Seq() uint64
}

// Node is a ring process driven by the ring simulator. Implementations in
// this package: Eager (forwards as soon as it has used the token) and Lazy
// (holds the token until a client asks or a hold budget expires).
type Node interface {
	View

	// Accept delivers token t, returning whether it was accepted (Accept
	// Spec: only tokens newer than seq_i are).
	Accept(t Token) bool
	// Tick advances local time by one tick; the node returns a token to
	// forward when Forward Spec obliges it to pass on (nil otherwise).
	Tick() *Token
	// CorruptState arbitrarily overwrites the spec variables (transient
	// state corruption).
	CorruptState(holding bool, seq uint64)
}

// Eager is the straightforward implementation: accept, hold for HoldFor
// ticks (its critical section), then forward. Zero bookkeeping beyond the
// spec variables.
type Eager struct {
	id, n   int
	holding bool
	seq     uint64
	// HoldFor is the critical-section length in ticks.
	HoldFor int
	held    int
}

var _ Node = (*Eager)(nil)

// NewEager returns an eager forwarder for process id of n holding the
// token holdFor ticks per visit.
func NewEager(id, n, holdFor int) *Eager {
	if holdFor < 1 {
		holdFor = 1
	}
	return &Eager{id: id, n: n, HoldFor: holdFor}
}

// ID returns the process id.
func (e *Eager) ID() int { return e.id }

// N returns the ring size.
func (e *Eager) N() int { return e.n }

// Holding reports token ownership.
func (e *Eager) Holding() bool { return e.holding }

// Seq returns seq_i.
func (e *Eager) Seq() uint64 { return e.seq }

// Accept implements Accept Spec.
func (e *Eager) Accept(t Token) bool {
	if t.Seq <= e.seq {
		return false
	}
	e.seq = t.Seq
	e.holding = true
	e.held = 0
	return true
}

// Tick implements Forward Spec: after HoldFor ticks the token moves on.
func (e *Eager) Tick() *Token {
	if !e.holding {
		return nil
	}
	e.held++
	if e.held < e.HoldFor {
		return nil
	}
	e.holding = false
	e.seq++ // the forwarded token carries seq_i + 1
	return &Token{Seq: e.seq}
}

// CorruptState overwrites the spec variables.
func (e *Eager) CorruptState(holding bool, seq uint64) {
	e.holding, e.seq, e.held = holding, seq, 0
}

// Lazy is a second, structurally different implementation: it keeps the
// token while idle, forwarding only when its hold budget expires or after
// serving a queued client request. Its extra internal state (the request
// counter and budget) is invisible through View — which is the point: the
// wrapper cannot depend on it.
type Lazy struct {
	id, n   int
	holding bool
	seq     uint64
	// MaxHold bounds how long the token may be kept (Forward Spec's
	// "eventually"), in ticks.
	MaxHold int
	held    int
	// pending counts client CS requests not yet served.
	pending int
	serving int
	// ServeFor is the critical-section length per request.
	ServeFor int
}

var _ Node = (*Lazy)(nil)

// NewLazy returns a lazy holder for process id of n with the given hold
// budget and per-request service time.
func NewLazy(id, n, maxHold, serveFor int) *Lazy {
	if maxHold < 1 {
		maxHold = 1
	}
	if serveFor < 1 {
		serveFor = 1
	}
	return &Lazy{id: id, n: n, MaxHold: maxHold, ServeFor: serveFor}
}

// ID returns the process id.
func (l *Lazy) ID() int { return l.id }

// N returns the ring size.
func (l *Lazy) N() int { return l.n }

// Holding reports token ownership.
func (l *Lazy) Holding() bool { return l.holding }

// Seq returns seq_i.
func (l *Lazy) Seq() uint64 { return l.seq }

// Accept implements Accept Spec.
func (l *Lazy) Accept(t Token) bool {
	if t.Seq <= l.seq {
		return false
	}
	l.seq = t.Seq
	l.holding = true
	l.held = 0
	l.serving = 0
	return true
}

// Tick implements Forward Spec with the lazy policy.
func (l *Lazy) Tick() *Token {
	if !l.holding {
		return nil
	}
	l.held++
	if l.pending > 0 {
		l.serving++
		if l.serving >= l.ServeFor {
			l.pending--
			l.serving = 0
		}
	}
	// Forward when idle with nothing queued, or when the budget expires
	// (the budget bounds "eventually" even under a corrupted pending
	// counter).
	if (l.pending == 0 && l.serving == 0) || l.held >= l.MaxHold {
		l.holding = false
		l.seq++
		return &Token{Seq: l.seq}
	}
	return nil
}

// CorruptState overwrites the spec variables and scrambles the lazy
// bookkeeping consistently with them.
func (l *Lazy) CorruptState(holding bool, seq uint64) {
	l.holding, l.seq = holding, seq
	l.held, l.serving = 0, 0
}

// Regenerator is the graybox wrapper W0: it watches process 0 through View
// and regenerates the token when none has been seen for Delta ticks. It
// keeps no implementation knowledge — only the spec variables and a timer.
type Regenerator struct {
	// Delta is the regeneration timeout in ticks; tune it above one ring
	// lap to avoid spurious (harmless, but wasteful) regenerations.
	Delta   int
	idle    int
	lastSeq uint64
	seen    bool
	// Regenerations counts how many tokens the wrapper created.
	Regenerations int
}

// NewRegenerator returns a wrapper with the given timeout (≥1).
func NewRegenerator(delta int) *Regenerator {
	if delta < 1 {
		delta = 1
	}
	return &Regenerator{Delta: delta}
}

// Observe notes one tick of process 0's view; it returns a regenerated
// token when the timeout expires with no sign of life — no holding and no
// seq_0 movement (a seq change means the token passed through since the
// last look).
func (r *Regenerator) Observe(v View) *Token {
	if v.Holding() || !r.seen || v.Seq() != r.lastSeq {
		r.idle = 0
		r.lastSeq = v.Seq()
		r.seen = true
		return nil
	}
	r.idle++
	if r.idle < r.Delta {
		return nil
	}
	r.idle = 0
	r.Regenerations++
	// Jump by n: ahead of any in-flight copy of the previous token.
	return &Token{Seq: v.Seq() + uint64(v.N())}
}

// String describes the wrapper.
func (r *Regenerator) String() string {
	return fmt.Sprintf("regenerator(δ=%d, fired=%d)", r.Delta, r.Regenerations)
}
