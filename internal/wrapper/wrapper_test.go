package wrapper

import (
	"slices"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/lamport"
	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/ra"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

// view is a scripted SpecView.
type view struct {
	id, n int
	phase tme.Phase
	req   ltime.Timestamp
	local map[int]ltime.Timestamp
}

func (v *view) ID() int              { return v.id }
func (v *view) N() int               { return v.n }
func (v *view) Phase() tme.Phase     { return v.phase }
func (v *view) REQ() ltime.Timestamp { return v.req }
func (v *view) LocalREQ(k int) (ltime.Timestamp, bool) {
	return v.local[k], false
}

func hungryView() *view {
	return &view{
		id:    1,
		n:     3,
		phase: tme.Hungry,
		req:   ltime.Timestamp{Clock: 5, PID: 1},
		local: map[int]ltime.Timestamp{
			0: {Clock: 2, PID: 0}, // earlier: mutual inconsistency candidate
			2: {Clock: 9, PID: 2}, // later: consistent
		},
	}
}

func TestWGuardSelectsStaleCopiesOnly(t *testing.T) {
	v := hungryView()
	msgs := W(v)
	if len(msgs) != 1 {
		t.Fatalf("W sent %d messages, want 1: %v", len(msgs), msgs)
	}
	m := msgs[0]
	if m.To != 0 || m.Kind != tme.Request || m.TS != v.req || m.From != 1 {
		t.Errorf("W message = %v", m)
	}
}

func TestWClosedWhenNotHungry(t *testing.T) {
	for _, p := range []tme.Phase{tme.Thinking, tme.Eating, tme.Phase(0)} {
		v := hungryView()
		v.phase = p
		if msgs := W(v); msgs != nil {
			t.Errorf("W fired in phase %v: %v", p, msgs)
		}
	}
}

// TestWAllocatesOncePerFiring pins W's cost: one slice, sized for the
// worst case, when the guard opens, and nothing when it stays closed.
func TestWAllocatesOncePerFiring(t *testing.T) {
	open := hungryView()
	closed := hungryView()
	closed.local[0] = ltime.Timestamp{Clock: 7, PID: 0} // every copy later than REQ
	thinking := hungryView()
	thinking.phase = tme.Thinking
	for _, c := range []struct {
		name string
		v    *view
		want float64
	}{{"open", open, 1}, {"closed", closed, 0}, {"thinking", thinking, 0}} {
		if got := testing.AllocsPerRun(100, func() { W(c.v) }); got != c.want {
			t.Errorf("%s guard: W allocates %.0f times, want %.0f", c.name, got, c.want)
		}
	}
}

// TestTimedFiringAllocatesNothing: W' writes each firing into its own
// buffer (Level2.Fire's contract), so only its first firing allocates.
func TestTimedFiringAllocatesNothing(t *testing.T) {
	v := &view{id: 2, n: 5, phase: tme.Hungry, req: ltime.Timestamp{Clock: 5, PID: 2}}
	var w Timed // δ = 0: the guard is evaluated at every call
	if msgs := w.Fire(0, v); len(msgs) != 4 {
		t.Fatalf("first firing sent %d messages, want 4", len(msgs))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if msgs := w.Fire(0, v); len(msgs) != 4 {
			t.Fatalf("firing sent %d messages, want 4", len(msgs))
		}
	})
	if allocs != 0 {
		t.Errorf("a firing W' allocates %.0f times after its first firing, want 0", allocs)
	}
}

// TestFiringLeavesFanOutsAlone: a node's RequestCS and ReleaseCS results
// live in the node's buffers and W' fires into its own, so firing over the
// node, however often, leaves both fan-outs as they were.
func TestFiringLeavesFanOutsAlone(t *testing.T) {
	for name, nd := range map[string]tme.Node{"ra": ra.New(0, 3), "lamport": lamport.New(0, 3)} {
		var w Timed
		req := nd.RequestCS()
		want := append([]tme.Message(nil), req...)
		for now := int64(0); now < 5; now++ {
			if msgs := w.Fire(now, nd); len(msgs) != 2 {
				t.Fatalf("%s: hungry with no replies, W' sent %v", name, msgs)
			}
		}
		if !slices.Equal(req, want) {
			t.Errorf("%s: RequestCS result after W' firings = %v, want %v", name, req, want)
		}

		nd.(tme.Corruptible).Corrupt(tme.Corruption{Phase: tme.Eating})
		nd.Deliver(tme.Message{Kind: tme.Request, TS: ltime.Timestamp{Clock: 9, PID: 1}, From: 1, To: 0})
		rel := nd.ReleaseCS()
		want = append([]tme.Message(nil), rel...)
		nd.RequestCS()
		for now := int64(5); now < 10; now++ {
			w.Fire(now, nd)
		}
		if len(rel) == 0 || !slices.Equal(rel, want) {
			t.Errorf("%s: ReleaseCS result after W' firings = %v, want %v", name, rel, want)
		}
	}
}

func TestWAllStaleSendsToAll(t *testing.T) {
	v := hungryView()
	v.local[2] = ltime.Zero
	if msgs := W(v); len(msgs) != 2 {
		t.Errorf("W sent %d, want 2", len(msgs))
	}
}

func TestUnrefinedSendsToEveryoneWhenHungry(t *testing.T) {
	v := hungryView()
	msgs := Unrefined(v)
	if len(msgs) != 2 {
		t.Fatalf("Unrefined sent %d, want 2", len(msgs))
	}
	if Unrefined(&view{id: 0, n: 2, phase: tme.Thinking}) != nil {
		t.Error("Unrefined fired while thinking")
	}
}

// W' refines W: every message W' sends, W would send at that state
// (the [W' ⇒ W] premise of Theorem 4).
func TestTimedRefinesW(t *testing.T) {
	v := hungryView()
	w := NewTimed(10)
	got := w.Fire(0, v)
	want := W(v)
	if len(got) != len(want) {
		t.Fatalf("W' sent %d, W sends %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("message %d: W'=%v W=%v", i, got[i], want[i])
		}
	}
}

func TestTimedRespectsPeriod(t *testing.T) {
	v := hungryView()
	w := NewTimed(10)
	if msgs := w.Fire(0, v); len(msgs) == 0 {
		t.Fatal("first fire should be open")
	}
	for now := int64(1); now < 10; now++ {
		if msgs := w.Fire(now, v); msgs != nil {
			t.Fatalf("fired at %d inside the timeout period", now)
		}
	}
	if msgs := w.Fire(10, v); len(msgs) == 0 {
		t.Fatal("did not fire at period expiry")
	}
}

func TestTimedDeltaZeroEquivalentToW(t *testing.T) {
	// The paper: W' with δ=0 is W. Fire at every instant must match W.
	v := hungryView()
	var w Timed // zero value: δ=0
	for now := int64(0); now < 5; now++ {
		got := w.Fire(now, v)
		want := W(v)
		if len(got) != len(want) {
			t.Fatalf("t=%d: W' sent %d, W sends %d", now, len(got), len(want))
		}
	}
}

func TestTimedClosedGuardStillResetsTimer(t *testing.T) {
	v := hungryView()
	v.phase = tme.Thinking
	w := NewTimed(5)
	if msgs := w.Fire(0, v); msgs != nil {
		t.Fatal("fired while thinking")
	}
	v.phase = tme.Hungry
	// Timer was consumed at t=0; next opportunity is t=5.
	if msgs := w.Fire(3, v); msgs != nil {
		t.Fatal("fired before period elapsed")
	}
	if msgs := w.Fire(5, v); len(msgs) == 0 {
		t.Fatal("did not fire at t=5")
	}
}

func TestFuncAdapter(t *testing.T) {
	v := hungryView()
	var l2 Level2 = Func(W)
	if got := l2.Fire(99, v); len(got) != 1 {
		t.Errorf("Func adapter sent %d", len(got))
	}
}

func TestNoRepair(t *testing.T) {
	nd := ra.New(0, 2)
	repaired, exc := NoRepair{}.CheckRepair(nd)
	if repaired || exc {
		t.Error("NoRepair did something")
	}
}

func TestPhaseGuardRepairsInvalidPhase(t *testing.T) {
	for _, nd := range []tme.Node{ra.New(0, 2), lamport.New(0, 2)} {
		nd.(tme.Corruptible).Corrupt(tme.Corruption{Phase: tme.Phase(9)})
		if nd.Phase().Valid() {
			t.Fatal("corruption did not break the phase")
		}
		repaired, exc := PhaseGuard{}.CheckRepair(nd)
		if !repaired || exc {
			t.Errorf("CheckRepair = (%v,%v)", repaired, exc)
		}
		if nd.Phase() != tme.Thinking {
			t.Errorf("phase after repair = %v", nd.Phase())
		}
		// Valid phase: no-op.
		if repaired, _ := (PhaseGuard{}).CheckRepair(nd); repaired {
			t.Error("PhaseGuard repaired a valid phase")
		}
	}
}

// Regression: a process corrupted to hungry with the MINIMUM timestamp as
// its REQ (so nothing can be "lt REQ_j") must still trigger the wrapper —
// the guard is ¬(REQ_j lt j.REQ_k), which opens on equality. With the
// strict "lt REQ_j" guard, a 12-process Lamport run deadlocked permanently
// in exactly this state.
func TestWFiresWhenREQIsMinimal(t *testing.T) {
	v := &view{
		id:    0,
		n:     2,
		phase: tme.Hungry,
		req:   ltime.Zero, // corrupted: minimal timestamp while hungry
		local: map[int]ltime.Timestamp{1: ltime.Zero},
	}
	if msgs := W(v); len(msgs) != 1 {
		t.Fatalf("W sent %d messages, want 1 (guard must open on equality)", len(msgs))
	}
}

// The wrapper never reads anything outside SpecView — this is a compile-time
// property, but assert the runtime consequence: W's output is a pure
// function of the view's five observables.
func TestWIsPureFunctionOfSpecView(t *testing.T) {
	// Two different implementations presenting identical spec views must
	// receive identical wrapper treatment.
	raNode := ra.New(0, 2)
	lpNode := lamport.New(0, 2)
	raNode.RequestCS()
	lpNode.RequestCS()
	// Both are hungry with REQ = 1.0 and zero local copies.
	mra, mlp := W(raNode), W(lpNode)
	if len(mra) != len(mlp) {
		t.Fatalf("W differs across implementations: %v vs %v", mra, mlp)
	}
	for i := range mra {
		if mra[i] != mlp[i] {
			t.Errorf("message %d differs: %v vs %v", i, mra[i], mlp[i])
		}
	}
}
