package workload

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/tme"
)

// fixedDraws is a constant draw stream: think 7, hold 4, shard 2.
type fixedDraws struct{ open bool }

func (fixedDraws) NextThink() int64     { return 7 }
func (fixedDraws) NextHold() int64      { return 4 }
func (fixedDraws) NextResource(int) int { return 2 }
func (f fixedDraws) Open() bool         { return f.open }
func (fixedDraws) Cohort() string       { return "fixed" }

const invalidPhase = tme.Phase(0)

// TestDriverStepTable walks every (state, observed phase, budget) row of
// the client, at time 100 in a unit of 10 per tick. A deadline is "ahead"
// at 130 and "spent" at 100. The three fault rows are the ones a polling
// or Eating-awaiting client gets wrong: a request wiped to Thinking while
// awaiting, Eating forged while thinking, Hungry forged while thinking.
func TestDriverStepTable(t *testing.T) {
	const now, ahead, spent = 100, 130, 100
	type row struct {
		name        string
		state       driverState
		thinkAt     int64
		holdAt      int64
		spentBudget bool
		ph          tme.Phase

		act      Action
		next     driverState
		wake     int64 // checked for ActSleep and ActIdle
		requests int   // issued by this step
	}
	rows := []row{
		// Between meals, no deadline armed.
		{name: "idle/thinking arms a think", state: drvIdle, thinkAt: spent, ph: tme.Thinking, act: ActSleep, next: drvThinking, wake: now + 70},
		{name: "idle/invalid arms a think", state: drvIdle, thinkAt: spent, ph: invalidPhase, act: ActSleep, next: drvThinking, wake: now + 70},
		{name: "idle/thinking, budget spent, parks", state: drvIdle, thinkAt: spent, spentBudget: true, ph: tme.Thinking, act: ActPark, next: drvParked},
		{name: "idle/hungry awaits", state: drvIdle, thinkAt: spent, ph: tme.Hungry, act: ActAwait, next: drvAwaiting},
		{name: "idle/eating audit-releases", state: drvIdle, thinkAt: spent, ph: tme.Eating, act: ActRelease, next: drvIdle},
		{name: "idle/thinking, think still ahead, resumes it", state: drvIdle, thinkAt: ahead, ph: tme.Thinking, act: ActIdle, next: drvThinking, wake: ahead},

		// Thinking, deadline ahead: an early look.
		{name: "thinking early/thinking idles", state: drvThinking, thinkAt: ahead, ph: tme.Thinking, act: ActIdle, next: drvThinking, wake: ahead},
		{name: "thinking early/invalid idles", state: drvThinking, thinkAt: ahead, ph: invalidPhase, act: ActIdle, next: drvThinking, wake: ahead},
		{name: "FAULT thinking early/forged hungry awaits", state: drvThinking, thinkAt: ahead, ph: tme.Hungry, act: ActAwait, next: drvAwaiting},
		{name: "FAULT thinking early/forged eating audit-releases, think stays armed", state: drvThinking, thinkAt: ahead, ph: tme.Eating, act: ActRelease, next: drvThinking},

		// Thinking, deadline spent.
		{name: "thinking due/thinking requests", state: drvThinking, thinkAt: spent, ph: tme.Thinking, act: ActRequest, next: drvAwaiting, requests: 1},
		{name: "FAULT thinking due/forged hungry awaits instead of re-thinking", state: drvThinking, thinkAt: spent, ph: tme.Hungry, act: ActAwait, next: drvAwaiting},
		{name: "FAULT thinking due/forged eating audit-releases, think re-drawn", state: drvThinking, thinkAt: spent, ph: tme.Eating, act: ActRelease, next: drvIdle},
		{name: "thinking due/invalid skips the cycle", state: drvThinking, thinkAt: spent, ph: invalidPhase, act: ActSleep, next: drvThinking, wake: now + 70},

		// Awaiting.
		{name: "awaiting/hungry keeps waiting", state: drvAwaiting, thinkAt: spent, ph: tme.Hungry, act: ActAwait, next: drvAwaiting},
		{name: "awaiting/eating holds", state: drvAwaiting, thinkAt: spent, ph: tme.Eating, act: ActSleep, next: drvHolding, wake: now + 40},
		{name: "FAULT awaiting/wiped to thinking thinks and asks again", state: drvAwaiting, thinkAt: spent, ph: tme.Thinking, act: ActSleep, next: drvThinking, wake: now + 70},
		{name: "awaiting/invalid thinks and asks again", state: drvAwaiting, thinkAt: spent, ph: invalidPhase, act: ActSleep, next: drvThinking, wake: now + 70},
		{name: "awaiting/wiped, budget spent, parks", state: drvAwaiting, thinkAt: spent, spentBudget: true, ph: tme.Thinking, act: ActPark, next: drvParked},
		{name: "awaiting/wiped, own think still ahead, resumes it", state: drvAwaiting, thinkAt: ahead, ph: tme.Thinking, act: ActIdle, next: drvThinking, wake: ahead},

		// Holding: the phase is not consulted, the substrate's release is a
		// no-op if a fault moved it.
		{name: "holding early/eating idles", state: drvHolding, holdAt: ahead, ph: tme.Eating, act: ActIdle, next: drvHolding, wake: ahead},
		{name: "holding early/wiped idles", state: drvHolding, holdAt: ahead, ph: tme.Thinking, act: ActIdle, next: drvHolding, wake: ahead},
		{name: "holding due/eating releases", state: drvHolding, holdAt: spent, ph: tme.Eating, act: ActRelease, next: drvIdle},
		{name: "holding due/wiped releases", state: drvHolding, holdAt: spent, ph: tme.Thinking, act: ActRelease, next: drvIdle},
		{name: "holding due/hungry releases", state: drvHolding, holdAt: spent, ph: tme.Hungry, act: ActRelease, next: drvIdle},

		// Parked: still total.
		{name: "parked/thinking stays parked", state: drvParked, thinkAt: spent, spentBudget: true, ph: tme.Thinking, act: ActPark, next: drvParked},
		{name: "parked/invalid stays parked", state: drvParked, thinkAt: spent, spentBudget: true, ph: invalidPhase, act: ActPark, next: drvParked},
		{name: "parked/forged hungry awaits", state: drvParked, thinkAt: spent, spentBudget: true, ph: tme.Hungry, act: ActAwait, next: drvAwaiting},
		{name: "parked/forged eating audit-releases", state: drvParked, thinkAt: spent, spentBudget: true, ph: tme.Eating, act: ActRelease, next: drvParked},
	}
	for _, r := range rows {
		d := NewDriver(fixedDraws{}, 3, 5, 10, 0)
		d.state, d.thinkAt, d.holdAt = r.state, r.thinkAt, r.holdAt
		if r.spentBudget {
			d.issued = d.budget
		}
		issued := d.issued
		if got := d.Step(now, r.ph); got != r.act {
			t.Errorf("%s: action = %d, want %d", r.name, got, r.act)
		}
		if d.state != r.next {
			t.Errorf("%s: state = %d, want %d", r.name, d.state, r.next)
		}
		if (r.act == ActSleep || r.act == ActIdle) && d.Wake() != r.wake {
			t.Errorf("%s: wake = %d, want %d", r.name, d.Wake(), r.wake)
		}
		if d.issued-issued != r.requests {
			t.Errorf("%s: issued %d requests, want %d", r.name, d.issued-issued, r.requests)
		}
		if r.act == ActSleep && r.next == drvThinking && d.Shard() != 2 {
			t.Errorf("%s: shard = %d, want the drawn 2", r.name, d.Shard())
		}
	}
}

// An open-loop client keeps an arrival clock that service does not move:
// arrivals that fell due during a long meal are served back to back.
func TestDriverOpenLoopBacklog(t *testing.T) {
	d := NewDriver(fixedDraws{open: true}, 1, 0, 1, 0)
	if act := d.Step(0, tme.Thinking); act != ActSleep || d.Wake() != 7 {
		t.Fatalf("first arrival: action %d at %d, want sleep until 7", act, d.Wake())
	}
	if act := d.Step(7, tme.Thinking); act != ActRequest {
		t.Fatalf("arrival due: action %d, want request", act)
	}
	// Served late: the meal ends at 30, two arrivals (14, 21) fell due.
	d.Step(26, tme.Eating)
	if act := d.Step(30, tme.Eating); act != ActRelease {
		t.Fatalf("hold over: action %d, want release", act)
	}
	for _, due := range []int64{14, 21} {
		if act := d.Step(30, tme.Thinking); act != ActSleep || d.Wake() != due {
			t.Fatalf("backlog: action %d at %d, want sleep until the past arrival %d", act, d.Wake(), due)
		}
		if act := d.Step(30, tme.Thinking); act != ActRequest {
			t.Fatalf("backlog arrival %d: action %d, want request at once", due, act)
		}
		d.Step(30, tme.Eating)
		d.Step(34, tme.Eating)
	}
}

// A step allocates nothing, whichever way it goes.
func TestDriverStepAllocatesNothing(t *testing.T) {
	d := NewDriver(NewGen(UniformSpec(5, 20, 3), 1, 1).Client(0), 4, 0, 1, 0)
	now, ph := int64(0), tme.Thinking
	allocs := testing.AllocsPerRun(1000, func() {
		switch d.Step(now, ph) {
		case ActSleep, ActIdle:
			now = d.Wake()
		case ActRequest:
			ph = tme.Hungry
		case ActAwait:
			ph = tme.Eating
		case ActRelease:
			ph = tme.Thinking
		case ActPark:
			t.Fatal("an unbounded client parked")
		}
	})
	if allocs != 0 {
		t.Errorf("Step allocates %.1f times per call, want 0", allocs)
	}
}
