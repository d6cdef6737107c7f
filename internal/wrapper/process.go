package wrapper

import "github.com/graybox-stabilization/graybox/internal/tme"

// Process is one wrapped process C ▯ W': a protocol node boxed with a
// level-1 wrapper and the timed level-2 W' (§2.2, Lemmas 2–3, Theorem 4),
// written once for every substrate. It holds no clock: each input takes
// the substrate's time now, in the substrate's unit (virtual ticks, or Unix
// nanoseconds on the goroutine runtime), and returns an Outcome saying what
// to send, whether the process entered and when W' falls due. The
// substrate keeps the channels, the timer that calls Deadline and the lock
// that serializes the inputs, and holds its Processes by value, in a slice
// or a record it allocates anyway.
//
// Every protocol action (Deliver, Request, Release) runs level-1 and then
// the node's internal step (CS entry). Corrupt runs level-1 alone, so a
// corrupted process is repaired at the input that corrupted it. Deadline
// runs W' alone: it reads the node and writes only the wrapper's buffer.
//
// W' is armed, not ticked: an input that leaves the node Hungry arms the
// deadline a period on unless it is armed, an input that leaves it in any
// other phase disarms it, and a due Deadline fires W' and re-arms a period
// on. Theorem 8 asks no more: W'_j is evaluated within δ of any
// continuously hungry state, and a process that is not hungry costs the
// wrapper nothing.
type Process struct {
	node   tme.Node
	level1 Level1    // nil: no level-1 wrapper
	level2 Level2    // nil: unwrapped, never armed
	period int64     // W''s period, > 0 when level2 is set
	due    int64     // the armed deadline; -1 when disarmed
	seen   tme.Phase // the phase the last writing input left; 0 before the first
}

// Outcome is what one input of a Process did. Its message slices follow
// the buffer contracts of tme.Node and Level2 (views of buffers the node's
// method or the wrapper owns), so a substrate sends them before it feeds
// the same input again.
type Outcome struct {
	// Program holds the protocol's messages: the action's result, valid
	// until the next call of the same input. Step's messages, which no
	// protocol here returns, are appended to a fresh copy.
	Program []tme.Message
	// Wrapper holds W''s messages, valid until the next Deadline.
	Wrapper []tme.Message
	// Entered reports a hungry→eating transition.
	Entered bool
	// Repaired reports that level-1 changed the node.
	Repaired bool
	// Wrote reports that the node may have been written: every input but
	// Deadline and a Request or Release the phase refused.
	Wrote bool
	// PhaseMoved reports that the phase differs from the one the previous
	// outcome that wrote the node left (always true on the first).
	PhaseMoved bool
	// Due is the armed W' deadline, -1 when disarmed.
	Due int64
}

// NewProcess boxes node with level-1 l1 and level-2 l2 (either may be nil)
// under W' period period, in the unit the substrate passes as now (at
// least 1; the substrate maps a wrapper.Timeout of 0, the eager W, onto
// its own smallest period). The deadline starts disarmed; a node that may
// start hungry is armed by its first input.
func NewProcess(node tme.Node, l1 Level1, l2 Level2, period int64) Process {
	return Process{node: node, level1: l1, level2: l2, period: period, due: -1}
}

// Node returns the boxed node. Reads are the caller's; a write outside
// the inputs must be followed by Corrupt(nil, now).
func (p *Process) Node() tme.Node { return p.node }

// Due returns the armed W' deadline, -1 when disarmed.
func (p *Process) Due() int64 { return p.due }

// Deliver hands m to the node.
func (p *Process) Deliver(m tme.Message, now int64) (o Outcome) {
	p.settle(&o, p.node.Deliver(m), true, now)
	return o
}

// Request performs the client's "Request CS" action; it does nothing unless
// the node is thinking.
func (p *Process) Request(now int64) (o Outcome) {
	if p.node.Phase() != tme.Thinking {
		return Outcome{Due: p.due}
	}
	p.settle(&o, p.node.RequestCS(), true, now)
	return o
}

// Release performs the client's "Release CS" action; it does nothing
// unless the node is eating.
func (p *Process) Release(now int64) (o Outcome) {
	if p.node.Phase() != tme.Eating {
		return Outcome{Due: p.due}
	}
	p.settle(&o, p.node.ReleaseCS(), true, now)
	return o
}

// Corrupt applies the transient corruption c to a node that supports it,
// then runs level-1. A nil c says that a fault already wrote the node
// outside the inputs (a simulator fault closure, a direct write between
// runs): level-1 runs, and the deadline is re-read from the phase.
func (p *Process) Corrupt(c *tme.Corruption, now int64) (o Outcome) {
	if c != nil {
		if node, ok := p.node.(tme.Corruptible); ok {
			node.Corrupt(*c)
		}
	}
	p.settle(&o, nil, false, now)
	return o
}

// Deadline evaluates W' when the armed deadline has fallen due, and re-arms
// it a period on. A deadline that is disarmed, or not yet due (a timer may
// fire stale, or a deadline may have been re-armed later since), is a no-op
// whose Due tells the substrate when to call again.
func (p *Process) Deadline(now int64) Outcome {
	if p.due < 0 || now < p.due {
		return Outcome{Due: p.due}
	}
	msgs := p.level2.Fire(now, p.node)
	p.due = now + p.period
	return Outcome{Wrapper: msgs, Due: p.due}
}

// settle finishes an input that may have written the node, whose
// messages are out: level-1, then, after a protocol action (step), the
// node's internal step, then the deadline, armed or disarmed from the
// phase. It fills o in place: the inputs are the hot path of every
// substrate, and an Outcome returned through one more call costs a copy.
func (p *Process) settle(o *Outcome, out []tme.Message, step bool, now int64) {
	o.Program, o.Wrote = out, true
	if p.level1 != nil {
		o.Repaired, _ = p.level1.CheckRepair(p.node)
	}
	if step {
		entered, more := p.node.Step()
		if len(more) > 0 {
			o.Program = append(out[:len(out):len(out)], more...)
		}
		o.Entered = entered
	}
	ph := p.node.Phase()
	o.PhaseMoved, p.seen = ph != p.seen, ph
	switch {
	case ph != tme.Hungry:
		p.due = -1
	case p.due < 0 && p.level2 != nil:
		p.due = now + p.period
	}
	o.Due = p.due
}
