// Package wrapper implements the graybox stabilization wrappers of DSN 2001
// §4, plus the level-1/level-2 design framework of §2.2.
//
// The central artifact is the level-2 dependability wrapper
//
//	W_j :: h.j ∧ j.REQ_k lt REQ_j  →  (∀k : k≠j : send(REQ_j, j, k))
//
// and its timeout relaxation W'_j (period δ), which is an everywhere
// implementation of W_j and therefore an equally valid wrapper (Theorem 4).
//
// Every function here takes a tme.SpecView — the Lspec-level variables and
// nothing else. A wrapper cannot read RA's deferred set or Lamport's request
// queue even by accident; graybox knowledge is all the type admits. That is
// why the same wrapper stabilizes both programs (Corollary 11) and any other
// everywhere implementation of Lspec.
package wrapper

import (
	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

// W evaluates the refined wrapper W_j against the spec view: when hungry,
// (re)send the current request to every process whose local copy j.REQ_k is
// not later than REQ_j — exactly the processes with which j may be mutually
// inconsistent. It returns the request messages to send (none when the
// guard is closed).
//
// The paper writes the guard as "j.REQ_k lt REQ_j". In legitimate states
// the two values are never equal across processes (timestamps carry their
// producer's pid), so that is equivalent to ¬(REQ_j lt j.REQ_k) — which is
// the form we evaluate. The distinction matters exactly once: transient
// corruption can set REQ_j to the minimum timestamp while hungry, making
// "lt REQ_j" unsatisfiable even though every local copy is useless; the
// ¬(REQ_j lt j.REQ_k) guard still opens and the wrapper still recovers the
// system (regression-tested against a 12-process deadlock this produced).
//
// The result is a fresh slice, the caller's to keep, allocated only when
// the guard opens: W reads the local copies one LocalREQ call at a time,
// where W' (Timed) reads them all in one call into a buffer it keeps.
func W(v tme.SpecView) []tme.Message {
	if v.Phase() != tme.Hungry {
		return nil
	}
	var dst []tme.Message
	req, j, n := v.REQ(), v.ID(), v.N()
	for k := 0; k < n; k++ {
		if k != j {
			local, _ := v.LocalREQ(k)
			dst = appendStale(dst, req, local, j, k, n)
		}
	}
	return dst
}

// appendStale appends process j's request REQ_j = req to k when j.REQ_k,
// local, is not later than it: one k of W_j's guard in an n-process
// system. A nil dst that must grow is allocated once, sized for the worst
// case; a closed guard leaves dst untouched.
func appendStale(dst []tme.Message, req, local ltime.Timestamp, j, k, n int) []tme.Message {
	if req.Less(local) {
		return dst
	}
	if dst == nil {
		dst = make([]tme.Message, 0, n-1)
	}
	return append(dst, tme.Message{Kind: tme.Request, TS: req, From: j, To: k})
}

// Unrefined evaluates the first, unrefined version of W_j from §4: when
// hungry, resend the request to every other process unconditionally. It is
// correct but sends more messages than W; both are exposed so the ablation
// benchmarks can quantify the refinement.
func Unrefined(v tme.SpecView) []tme.Message {
	if v.Phase() != tme.Hungry {
		return nil
	}
	req := v.REQ()
	msgs := make([]tme.Message, 0, v.N()-1)
	for k := 0; k < v.N(); k++ {
		if k != v.ID() {
			msgs = append(msgs, tme.Message{Kind: tme.Request, TS: req, From: v.ID(), To: k})
		}
	}
	return msgs
}

// Level2 is a level-2 dependability wrapper (§2.2): it restores mutual
// consistency between processes, optimistically assuming each process is
// internally consistent. Fire is invoked by the execution substrate with
// the current virtual time; the wrapper decides whether its guard is open.
type Level2 interface {
	// Fire evaluates the wrapper at time now over the spec view and
	// returns the messages to send. The result is valid only until the
	// next Fire on this wrapper: an implementation may return a view of a
	// buffer it owns, so that firing allocates nothing. A caller sends (or
	// copies) the messages before it fires the wrapper again.
	Fire(now int64, v tme.SpecView) []tme.Message
}

// Timed is W'_j: W_j guarded by a timeout of period Delta, the paper's
// optimization that trades convergence latency for steady-state message
// overhead. Delta = 0 makes W' equivalent to W (the paper's observation).
// The zero value is W' with Delta 0, ready to use.
type Timed struct {
	// Delta is the timeout period δ_j in virtual-time units.
	Delta int64
	// next is the earliest time the guard may open again.
	next int64
	// out backs Fire's result; see Level2.Fire.
	out []tme.Message
	// local is the buffer appendW reads the local copies into.
	local []ltime.Timestamp
}

var _ Level2 = (*Timed)(nil)

// NewTimed returns W' with the given timeout period; negative periods are
// clamped to 0 (the eager W).
func NewTimed(delta int64) *Timed {
	if delta < 0 {
		delta = 0
	}
	return &Timed{Delta: delta}
}

// Fire evaluates W'_j: a no-op until the timer expires, then W_j, then the
// timer is reset to Delta. The messages are written into the wrapper's own
// buffer, valid until the next Fire.
func (t *Timed) Fire(now int64, v tme.SpecView) []tme.Message {
	if now < t.next {
		return nil
	}
	t.next = now + t.Delta
	t.out = t.appendW(t.out[:0], v)
	if len(t.out) == 0 {
		return nil
	}
	return t.out
}

// appendW appends W_j's messages to dst and returns the extended slice. It
// reads every j.REQ_k in one tme.ReadLocal call into t.local, which it
// grows to N() when it is shorter.
func (t *Timed) appendW(dst []tme.Message, v tme.SpecView) []tme.Message {
	if v.Phase() != tme.Hungry {
		return dst
	}
	req, j, n := v.REQ(), v.ID(), v.N()
	if cap(t.local) < n {
		t.local = make([]ltime.Timestamp, n)
	}
	t.local = t.local[:n]
	tme.ReadLocal(v, t.local, nil)
	for k, c := range t.local {
		if k != j {
			dst = appendStale(dst, req, c, j, k, n)
		}
	}
	return dst
}

// Func adapts a plain wrapper function (such as W or Unrefined) into a
// Level2 that ignores time.
type Func func(v tme.SpecView) []tme.Message

// Fire implements Level2.
func (f Func) Fire(_ int64, v tme.SpecView) []tme.Message { return f(v) }

// Level1 is a level-1 dependability wrapper (§2.2): it restores a process to
// an internally consistent state. It may raise an exception to notify other
// processes' wrappers of the repair; for TME no exception is needed because
// the level-2 wrapper already reconciles inter-process state continuously.
type Level1 interface {
	// CheckRepair inspects the node and repairs internal inconsistencies.
	// repaired reports whether anything was changed; exception reports
	// whether other processes' wrappers should be notified.
	CheckRepair(n tme.Node) (repaired, exception bool)
}

// NoRepair is the level-1 wrapper for Lspec implementations: the identity.
// The paper observes (§4) that every everywhere implementation of Lspec is
// internally consistent in every state, so no level-1 repair is required.
type NoRepair struct{}

var _ Level1 = NoRepair{}

// CheckRepair reports no repair and no exception.
func (NoRepair) CheckRepair(tme.Node) (repaired, exception bool) { return false, false }

// PhaseGuard is a level-1 wrapper for implementations whose phase variable
// can be corrupted *outside* its type (breaking Structural Spec, which Lspec
// everywhere-implementations otherwise maintain): it repairs an invalid
// phase to thinking, the unique phase from which the client can always
// proceed. This extends the paper's method to faults below the Lspec
// abstraction.
type PhaseGuard struct{}

var _ Level1 = PhaseGuard{}

// CheckRepair restores an invalid phase to thinking.
func (PhaseGuard) CheckRepair(n tme.Node) (repaired, exception bool) {
	if n.Phase().Valid() {
		return false, false
	}
	if c, ok := n.(tme.Corruptible); ok {
		c.Corrupt(tme.Corruption{Phase: tme.Thinking})
		return true, false
	}
	return false, true // cannot repair in place: escalate
}
