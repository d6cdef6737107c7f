package workload

import (
	"slices"
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

		act     Action
		next    driverState
		wake    int64 // checked for ActSleep and ActIdle
		started int   // lock sets started by this step
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
		{name: "thinking due/thinking requests", state: drvThinking, thinkAt: spent, ph: tme.Thinking, act: ActRequest, next: drvAwaiting, started: 1},
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
		d := NewDriver(fixedDraws{}, 3, 0, 5, 10, 0)
		d.state, d.thinkAt, d.holdAt = r.state, r.thinkAt, r.holdAt
		if r.spentBudget {
			d.started = d.budget
		}
		started := d.started
		if got := d.Step(now, r.ph); got != r.act {
			t.Errorf("%s: action = %d, want %d", r.name, got, r.act)
		}
		if d.state != r.next {
			t.Errorf("%s: state = %d, want %d", r.name, d.state, r.next)
		}
		if (r.act == ActSleep || r.act == ActIdle) && d.Wake() != r.wake {
			t.Errorf("%s: wake = %d, want %d", r.name, d.Wake(), r.wake)
		}
		if d.started-started != r.started {
			t.Errorf("%s: started %d lock sets, want %d", r.name, d.started-started, r.started)
		}
		if r.act == ActSleep && r.next == drvThinking && d.Shard() != 2 {
			t.Errorf("%s: shard = %d, want the drawn 2", r.name, d.Shard())
		}
	}
}

// An open-loop client keeps an arrival clock that service does not move:
// arrivals that fell due during a long meal are served back to back.
func TestDriverOpenLoopBacklog(t *testing.T) {
	d := NewDriver(fixedDraws{open: true}, 1, 0, 0, 1, 0)
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

// A step allocates nothing, whichever way it goes, two-shard lock sets
// included.
func TestDriverStepAllocatesNothing(t *testing.T) {
	d := NewDriver(NewGen(UniformSpec(5, 20, 3), 1, 1).Client(0), 4, 2, 0, 1, 0)
	now, ph, widest := int64(0), tme.Thinking, 0
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
		widest = max(widest, len(d.Held()))
	})
	if allocs != 0 {
		t.Errorf("Step allocates %.1f times per call, want 0", allocs)
	}
	if widest != 2 {
		t.Errorf("widest lock set held = %d, want 2", widest)
	}
}

// scriptedShards draws think 7, hold 4 and the shards of its script in
// turn.
type scriptedShards struct {
	fixedDraws
	script []int
	next   int
}

func (s *scriptedShards) NextResource(int) int {
	r := s.script[s.next%len(s.script)]
	s.next++
	return r
}

// Every crossEvery-th lock set draws two shards; the Driver holds them
// ascending, without a duplicate, however they were drawn. The budget
// counts lock sets, not requests.
func TestDriverLockSetIsOrderedAndDeduplicated(t *testing.T) {
	// Sets 1 and 3 are one shard; set 2 draws 3 then 1; set 4 draws 2 twice.
	draws := &scriptedShards{script: []int{0, 3, 1, 2, 2, 2}}
	d := NewDriver(draws, 4, 2, 4, 1, 0)
	want := [][]int{{0}, {1, 3}, {2}, {2}}
	now := int64(0)
	for k, set := range want {
		if act := d.Step(now, tme.Thinking); act != ActSleep {
			t.Fatalf("set %d: think step action %d, want sleep", k+1, act)
		}
		if got := d.Set(); !slices.Equal(got, set) {
			t.Fatalf("set %d = %v, want %v", k+1, got, set)
		}
		now = d.Wake()
		for j, s := range set {
			ph := tme.Thinking
			if j > 0 {
				ph = tme.Eating // the previous shard of the set was granted
			}
			if act := d.Step(now, ph); act != ActRequest || d.Shard() != s {
				t.Fatalf("set %d: action %d on shard %d, want a request on %d", k+1, act, d.Shard(), s)
			}
			if got := d.Held(); !slices.Equal(got, set[:j]) {
				t.Fatalf("set %d: held %v asking for shard %d, want %v", k+1, got, s, set[:j])
			}
		}
		if act := d.Step(now, tme.Eating); act != ActSleep || !slices.Equal(d.Held(), set) {
			t.Fatalf("set %d: last grant gave action %d holding %v, want a hold of %v", k+1, act, d.Held(), set)
		}
		now = d.Wake()
		if act := d.Step(now, tme.Eating); act != ActRelease || !slices.Equal(d.Set(), set) || len(d.Held()) != 0 {
			t.Fatalf("set %d: hold over gave action %d releasing %v holding %v", k+1, act, d.Set(), d.Held())
		}
	}
	if d.started != 4 {
		t.Fatalf("started %d lock sets, want 4", d.started)
	}
	if act := d.Step(now, tme.Thinking); act != ActPark {
		t.Fatalf("after a budget of 4 lock sets: action %d, want park", act)
	}
}

// recordingDraws remembers the shards its stream drew for the set being
// drawn.
type recordingDraws struct {
	Client
	drawn []int
}

func (r *recordingDraws) NextResource(n int) int {
	s := r.Client.NextResource(n)
	r.drawn = append(r.drawn, s)
	return s
}

// Over random draws, every lock set the Driver starts is its draws sorted
// with duplicates dropped, and it asks for them in that order.
func TestDriverSetsAreSortedDeduplicatedDraws(t *testing.T) {
	draws := &recordingDraws{Client: NewGen(UniformSpec(1, 3, 1), 1, 1).Client(0)}
	d := NewDriver(draws, 3, 2, 0, 1, 0) // three shards: duplicates are common
	now := int64(0)
	for k := 0; k < 500; k++ {
		draws.drawn = draws.drawn[:0]
		if act := d.Step(now, tme.Thinking); act != ActSleep {
			t.Fatalf("set %d: think step action %d, want sleep", k, act)
		}
		want := slices.Clone(draws.drawn)
		slices.Sort(want)
		want = slices.Compact(want)
		if !slices.Equal(d.Set(), want) {
			t.Fatalf("set %d: drew %v, set %v, want %v", k, draws.drawn, d.Set(), want)
		}
		now = d.Wake()
		for ph := tme.Thinking; ; ph = tme.Eating {
			act := d.Step(now, ph)
			if act == ActSleep {
				break
			}
			if act != ActRequest || d.Shard() != want[len(d.Held())] {
				t.Fatalf("set %d: action %d on shard %d holding %v, want a request for %d",
					k, act, d.Shard(), d.Held(), want[len(d.Held())])
			}
		}
		now = d.Wake()
		d.Step(now, tme.Eating) // release
	}
}

// The rows of a two-shard set {1, 3} that a one-shard set never reaches:
// a grant of the first shard asks for the second, and a request wiped
// while the first is held is asked again at once, inside the same set.
func TestDriverLockSetRows(t *testing.T) {
	const now = 100
	rows := []struct {
		name  string
		held  int
		ph    tme.Phase
		act   Action
		next  driverState
		shard int
	}{
		{"first granted asks for the second", 0, tme.Eating, ActRequest, drvAwaiting, 3},
		{"first awaited", 0, tme.Hungry, ActAwait, drvAwaiting, 1},
		{"second awaited", 1, tme.Hungry, ActAwait, drvAwaiting, 3},
		{"second granted holds both", 1, tme.Eating, ActSleep, drvHolding, 3},
		{"FAULT second wiped asks again at once", 1, tme.Thinking, ActRequest, drvAwaiting, 3},
		{"second invalid asks again at once", 1, invalidPhase, ActRequest, drvAwaiting, 3},
	}
	for _, r := range rows {
		d := NewDriver(fixedDraws{}, 4, 1, 0, 1, 0)
		d.state, d.set, d.n, d.held, d.started = drvAwaiting, [MaxLockSet]int{1, 3}, 2, r.held, 1
		if got := d.Step(now, r.ph); got != r.act {
			t.Errorf("%s: action = %d, want %d", r.name, got, r.act)
		}
		if d.state != r.next || d.Shard() != r.shard || d.started != 1 {
			t.Errorf("%s: state %d on shard %d after %d sets, want %d on %d after 1",
				r.name, d.state, d.Shard(), d.started, r.next, r.shard)
		}
	}
}
