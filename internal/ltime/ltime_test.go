package ltime

import (
	"sort"
	"testing"
	"testing/quick"

	"github.com/graybox-stabilization/graybox/internal/seeded"
)

func TestZeroIsMinimum(t *testing.T) {
	others := []Timestamp{
		{Clock: 0, PID: 1},
		{Clock: 1, PID: 0},
		{Clock: 1, PID: -1},
		{Clock: 42, PID: 7},
	}
	for _, u := range others {
		if !Zero.Less(u) {
			t.Errorf("Zero.Less(%v) = false, want true", u)
		}
		if u.Less(Zero) {
			t.Errorf("%v.Less(Zero) = true, want false", u)
		}
	}
	if !Zero.IsZero() {
		t.Error("Zero.IsZero() = false")
	}
	if Zero.Less(Zero) {
		t.Error("Zero.Less(Zero) = true, want irreflexive")
	}
}

func TestLessTieBreaksOnPID(t *testing.T) {
	a := Timestamp{Clock: 5, PID: 1}
	b := Timestamp{Clock: 5, PID: 2}
	if !a.Less(b) {
		t.Errorf("%v.Less(%v) = false, want true (pid tie-break)", a, b)
	}
	if b.Less(a) {
		t.Errorf("%v.Less(%v) = true, want false", b, a)
	}
}

func TestCompareConsistentWithLess(t *testing.T) {
	cases := []struct {
		a, b Timestamp
		want int
	}{
		{Timestamp{1, 1}, Timestamp{2, 1}, -1},
		{Timestamp{2, 1}, Timestamp{1, 1}, 1},
		{Timestamp{3, 3}, Timestamp{3, 3}, 0},
		{Timestamp{3, 1}, Timestamp{3, 2}, -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestString(t *testing.T) {
	ts := Timestamp{Clock: 17, PID: 3}
	if got, want := ts.String(), "17.3"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestLessEq(t *testing.T) {
	a := Timestamp{Clock: 1, PID: 1}
	if !a.LessEq(a) {
		t.Error("LessEq not reflexive")
	}
	if !Zero.LessEq(a) || a.LessEq(Zero) {
		t.Error("LessEq inconsistent with Less")
	}
}

// Property: lt is a strict total order — trichotomy holds for every pair.
func TestLessTotalOrderProperty(t *testing.T) {
	f := func(c1, c2 uint64, p1, p2 int8) bool {
		a := Timestamp{Clock: c1, PID: int(p1)}
		b := Timestamp{Clock: c2, PID: int(p2)}
		lt, gt, eq := a.Less(b), b.Less(a), a == b
		n := 0
		for _, v := range []bool{lt, gt, eq} {
			if v {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: lt is transitive.
func TestLessTransitiveProperty(t *testing.T) {
	f := func(c1, c2, c3 uint16, p1, p2, p3 int8) bool {
		a := Timestamp{Clock: uint64(c1), PID: int(p1)}
		b := Timestamp{Clock: uint64(c2), PID: int(p2)}
		c := Timestamp{Clock: uint64(c3), PID: int(p3)}
		if a.Less(b) && b.Less(c) {
			return a.Less(c)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClockTickStrictlyIncreases(t *testing.T) {
	c := NewClock(4)
	prev := c.Now()
	for i := 0; i < 100; i++ {
		cur := c.Tick()
		if !prev.Less(cur) {
			t.Fatalf("tick %d: %v not less than %v", i, prev, cur)
		}
		if cur.PID != 4 {
			t.Fatalf("tick %d: pid = %d, want 4", i, cur.PID)
		}
		prev = cur
	}
}

func TestClockObserveJumpsForward(t *testing.T) {
	c := NewClock(1)
	got := c.Observe(Timestamp{Clock: 100, PID: 2})
	if got.Clock != 101 {
		t.Errorf("Observe(100) -> clock %d, want 101", got.Clock)
	}
	// Observing an old timestamp still ticks.
	got2 := c.Observe(Timestamp{Clock: 3, PID: 2})
	if got2.Clock != 102 {
		t.Errorf("Observe(3) -> clock %d, want 102", got2.Clock)
	}
}

func TestClockNowDoesNotAdvance(t *testing.T) {
	c := NewClock(0)
	c.Tick()
	a := c.Now()
	b := c.Now()
	if a != b {
		t.Errorf("Now() advanced: %v then %v", a, b)
	}
}

func TestClockCorruptAndRecover(t *testing.T) {
	c := NewClock(2)
	c.Tick()
	c.Corrupt(999)
	if c.Now().Clock != 999 {
		t.Fatalf("Corrupt: value = %d, want 999", c.Now().Clock)
	}
	// After corruption, ticks still strictly increase from the corrupted
	// value — the Timestamp Spec is everywhere-implementable.
	ts := c.Tick()
	if ts.Clock != 1000 {
		t.Errorf("post-corruption tick = %d, want 1000", ts.Clock)
	}
	c.Corrupt(5)
	if c.Now().Clock != 5 {
		t.Errorf("Corrupt: now = %d, want 5", c.Now().Clock)
	}
}

// Property: happened-before implies lt. Simulate a random message-passing
// history and check every (cause, effect) pair is ordered by lt.
func TestHappenedBeforeImpliesLess(t *testing.T) {
	const (
		nProcs  = 4
		nEvents = 200
		trials  = 25
	)
	for trial := 0; trial < trials; trial++ {
		rng := seeded.New(int64(trial))
		clocks := make([]*Clock, nProcs)
		for i := range clocks {
			clocks[i] = NewClock(i)
		}
		type event struct {
			ts     Timestamp
			proc   int
			causes []int // indices of events that happen-before this one
		}
		var events []event
		lastAt := make([]int, nProcs) // index of last event per process, -1 none
		for i := range lastAt {
			lastAt[i] = -1
		}
		var inflight []int // indices of send events not yet received
		for e := 0; e < nEvents; e++ {
			p := rng.Intn(nProcs)
			var ev event
			ev.proc = p
			if lastAt[p] >= 0 {
				ev.causes = append(ev.causes, lastAt[p])
			}
			if len(inflight) > 0 && rng.Intn(2) == 0 {
				// receive a random in-flight message
				k := rng.Intn(len(inflight))
				sendIdx := inflight[k]
				inflight = append(inflight[:k], inflight[k+1:]...)
				ev.causes = append(ev.causes, sendIdx)
				ev.ts = clocks[p].Observe(events[sendIdx].ts)
			} else {
				// local or send event
				ev.ts = clocks[p].Tick()
				if rng.Intn(2) == 0 {
					inflight = append(inflight, len(events))
				}
			}
			lastAt[p] = len(events)
			events = append(events, ev)
		}
		// Transitive closure check, following cause edges backwards.
		var check func(anc, idx int) bool
		check = func(anc, idx int) bool {
			if !events[anc].ts.Less(events[idx].ts) {
				return false
			}
			return true
		}
		for i, ev := range events {
			for _, c := range ev.causes {
				// walk all ancestors of c too
				stack := []int{c}
				seen := map[int]bool{}
				for len(stack) > 0 {
					a := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if seen[a] {
						continue
					}
					seen[a] = true
					if !check(a, i) {
						t.Fatalf("trial %d: hb violated: event %d (%v) !lt event %d (%v)",
							trial, a, events[a].ts, i, events[i].ts)
					}
					stack = append(stack, events[a].causes...)
				}
			}
		}
	}
}

// Property: sorting by Less yields a consistent permutation (sort.Slice with
// Less is a valid strict weak ordering).
func TestSortByLess(t *testing.T) {
	rng := seeded.New(7)
	ts := make([]Timestamp, 500)
	for i := range ts {
		ts[i] = Timestamp{Clock: uint64(rng.Intn(50)), PID: rng.Intn(10)}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
	for i := 1; i < len(ts); i++ {
		if ts[i].Less(ts[i-1]) {
			t.Fatalf("not sorted at %d: %v after %v", i, ts[i], ts[i-1])
		}
	}
}
