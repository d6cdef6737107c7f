package wrapper

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/lamport"
	"github.com/graybox-stabilization/graybox/internal/ra"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

var protocols = []struct {
	name string
	new  func(id, n int) tme.Node
}{
	{"ra", func(id, n int) tme.Node { return ra.New(id, n) }},
	{"lamport", func(id, n int) tme.Node { return lamport.New(id, n) }},
}

// pair builds two processes of one protocol, each boxed with PhaseGuard and
// W' of period delta.
func pair(newNode func(id, n int) tme.Node, delta int64) [2]Process {
	var ps [2]Process
	for i := range ps {
		ps[i] = NewProcess(newNode(i, 2), PhaseGuard{}, NewTimed(delta), delta)
	}
	return ps
}

// lostRequestCycle drives process 0 of ps through every input once, from
// thinking at time now: its request is lost, W' resends it at the deadline,
// the reply lets it enter, it releases, and a sub-Lspec corruption is
// repaired at once. It fails t on any outcome that differs.
func lostRequestCycle(t *testing.T, ps *[2]Process, now, delta int64) {
	p0, p1 := &ps[0], &ps[1]
	o := p0.Request(now)
	if !o.Wrote || !o.PhaseMoved || len(o.Program) != 1 || o.Due != now+delta {
		t.Fatalf("Request at %d = %+v; want one REQ, the phase moved, due %d", now, o, now+delta)
	}
	if o = p0.Deadline(now + delta - 1); o.Wrapper != nil || o.Due != now+delta {
		t.Fatalf("Deadline before due = %+v; want a no-op, still due %d", o, now+delta)
	}
	o = p0.Deadline(now + delta)
	if len(o.Wrapper) != 1 || o.Wrapper[0].Kind != tme.Request || o.Wrote || o.Due != now+2*delta {
		t.Fatalf("Deadline when due = %+v; want one resent REQ, no write, re-armed to %d", o, now+2*delta)
	}
	reply := p1.Deliver(o.Wrapper[0], now+delta+1)
	if len(reply.Program) != 1 || reply.Entered {
		t.Fatalf("a thinking peer's Deliver = %+v; want one reply", reply)
	}
	if o = p0.Deliver(reply.Program[0], now+delta+2); !o.Entered || !o.PhaseMoved || o.Due != -1 {
		t.Fatalf("the reply's Deliver = %+v; want entered, disarmed", o)
	}
	o = p0.Release(now + delta + 3)
	if !o.Wrote || o.Due != -1 {
		t.Fatalf("Release = %+v; want a write, disarmed", o)
	}
	for _, m := range o.Program {
		p1.Deliver(m, now+delta+4)
	}
	bad := tme.Corruption{Phase: tme.Phase(9)}
	if o = p0.Corrupt(&bad, now+delta+5); !o.Repaired || p0.Node().Phase() != tme.Thinking {
		t.Fatalf("Corrupt to an invalid phase = %+v, phase %v; want repaired to thinking", o, p0.Node().Phase())
	}
}

// TestProcessInputsAllocateNothing holds every input of the step to zero
// allocations in steady state, on both protocols: the messages are views of
// buffers the nodes and the wrapper own, and the outcome is a value.
func TestProcessInputsAllocateNothing(t *testing.T) {
	const delta = 5
	for _, p := range protocols {
		ps := pair(p.new, delta)
		now := int64(0)
		lostRequestCycle(t, &ps, now, delta) // grow every buffer once
		allocs := testing.AllocsPerRun(100, func() {
			now += 100
			lostRequestCycle(t, &ps, now, delta)
		})
		if allocs != 0 {
			t.Errorf("%s: one cycle of the five inputs allocates %.1f times, want 0", p.name, allocs)
		}
	}
}

// TestProcessDeadlineIsWPrimeAlone pins the deadline to W': it neither runs
// level-1 nor steps the node. A node written behind the step's back into an
// invalid phase stays so through a due deadline, whose W' finds no hungry
// process and sends nothing, until the Corrupt(nil) that reports the write
// repairs it and disarms the deadline.
func TestProcessDeadlineIsWPrimeAlone(t *testing.T) {
	for _, p := range protocols {
		ps := pair(p.new, 5)
		p0 := &ps[0]
		p0.Request(10)
		p0.Node().(tme.Corruptible).Corrupt(tme.Corruption{Phase: tme.Phase(9)})
		o := p0.Deadline(15)
		if o.Wrapper != nil || o.Repaired || o.Entered || p0.Node().Phase().Valid() || o.Due != 20 {
			t.Fatalf("%s: Deadline = %+v, phase %v; want W' alone: nothing sent, nothing repaired, re-armed to 20",
				p.name, o, p0.Node().Phase())
		}
		if o = p0.Corrupt(nil, 16); !o.Repaired || o.Due != -1 {
			t.Fatalf("%s: Corrupt(nil) = %+v; want repaired and disarmed", p.name, o)
		}
	}
}

// TestProcessArmsOncePerHungryStretch pins where the deadline is armed: a
// period after the input that leaves the node hungry, kept by inputs that
// leave it hungry, moved by none of them, and never on an unwrapped process.
func TestProcessArmsOncePerHungryStretch(t *testing.T) {
	ps := pair(protocols[0].new, 7)
	p0 := &ps[0]
	if o := p0.Request(3); o.Due != 10 {
		t.Fatalf("Request at 3 armed %d, want 10", o.Due)
	}
	req := tme.Message{Kind: tme.Request, TS: ps[1].Node().REQ(), From: 1, To: 0}
	if o := p0.Deliver(req, 8); o.Due != 10 || o.PhaseMoved {
		t.Fatalf("a Deliver that leaves the node hungry = %+v; want due still 10, phase unmoved", o)
	}
	if o := p0.Request(9); o.Wrote || o.Due != 10 {
		t.Fatalf("Request while hungry = %+v; want a no-op, due still 10", o)
	}
	bare := NewProcess(ra.New(0, 2), nil, nil, 0)
	if o := bare.Request(3); o.Due != -1 || bare.Due() != -1 {
		t.Fatalf("an unwrapped process armed %d", o.Due)
	}
}
