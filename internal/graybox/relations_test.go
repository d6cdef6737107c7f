package graybox

import (
	"strings"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/seeded"
)

// TestFigure1 reproduces the paper's Figure 1 counterexample exactly:
// [C ⇒ A]_init holds, A is stabilizing to A, yet C is NOT stabilizing to A
// (the fault F: s0 → s* traps C in s* forever). This motivates everywhere
// specifications.
func TestFigure1(t *testing.T) {
	a, c := Fig1A(), Fig1C()

	if r := Implements(c, a); !r.Holds {
		t.Fatalf("[C ⇒ A]_init should hold: %v", r)
	}
	if ok, l := SelfStabilizing(a); !ok {
		t.Fatalf("A should be stabilizing to A, counterexample %v", l)
	}
	ok, l := StabilizingTo(c, a)
	if ok {
		t.Fatal("C should NOT be stabilizing to A")
	}
	if l == nil {
		t.Fatal("missing lasso counterexample")
	}
	if l.BadEdge != [2]int{Fig1Star, Fig1Star} {
		t.Errorf("bad edge = %v, want s*→s*", l.BadEdge)
	}
	if !strings.Contains(l.String(), "bad transition") {
		t.Errorf("lasso String = %q", l.String())
	}

	// And the everywhere relation correctly rejects C: s*→s* is not in A.
	if r := EverywhereImplements(c, a); r.Holds {
		t.Error("[C ⇒ A] should fail for Figure 1's C")
	} else if r.BadEdge == nil || *r.BadEdge != [2]int{Fig1Star, Fig1Star} {
		t.Errorf("EverywhereImplements counterexample = %v", r)
	}
}

// Theorem "first observation" of §2.1: [C ⇒ A] ∧ A stabilizing to A ⇒
// C stabilizing to A — property-tested on random systems.
func TestEverywhereTransfersStabilization(t *testing.T) {
	rng := seeded.New(11)
	tested := 0
	for i := 0; i < 400; i++ {
		a := Random(rng, "a", 2+rng.Intn(12), 2.0)
		if ok, _ := SelfStabilizing(a); !ok {
			continue
		}
		c := RandomSub(rng, "c", a)
		tested++
		if ok, l := StabilizingTo(c, a); !ok {
			t.Fatalf("iter %d: [C⇒A] and A self-stabilizing but C not stabilizing to A: %v", i, l)
		}
	}
	if tested < 20 {
		t.Fatalf("only %d self-stabilizing samples; generator too weak", tested)
	}
}

func TestImplementsCounterexamples(t *testing.T) {
	a := NewBuilder("a", 3).AddChain(0, 1, 2).AddTransition(2, 2).SetInit(0).MustBuild()

	// Bad init: C starts where A does not.
	c1 := NewBuilder("c1", 3).AddChain(0, 1, 2).AddTransition(2, 2).SetInit(1).MustBuild()
	r := Implements(c1, a)
	if r.Holds || r.BadInit != 1 {
		t.Errorf("bad-init case: %v", r)
	}
	if !strings.Contains(r.String(), "initial state 1") {
		t.Errorf("String = %q", r.String())
	}

	// Bad reachable edge.
	c2 := NewBuilder("c2", 3).AddChain(0, 1, 0).AddTransition(2, 2).SetInit(0).MustBuild()
	r = Implements(c2, a)
	if r.Holds || r.BadEdge == nil || *r.BadEdge != [2]int{1, 0} {
		t.Errorf("bad-edge case: %v", r)
	}

	// Unreachable bad edge does not affect the init-relative query...
	c3 := NewBuilder("c3", 3).AddChain(0, 1, 2).AddTransition(2, 2).
		AddTransition(2, 2). // dup, no-op
		SetInit(0).MustBuild()
	if r = Implements(c3, a); !r.Holds {
		t.Errorf("identical system: %v", r)
	}

	// ...but an unreachable bad edge does break the everywhere query.
	c4 := NewBuilder("c4", 4).AddChain(0, 1, 2).AddTransition(2, 2).
		AddTransition(3, 0).SetInit(0).MustBuild()
	a4 := NewBuilder("a4", 4).AddChain(0, 1, 2).AddTransition(2, 2).
		AddTransition(3, 3).SetInit(0).MustBuild()
	if r = Implements(c4, a4); !r.Holds {
		t.Errorf("init-relative should ignore unreachable 3→0: %v", r)
	}
	if r = EverywhereImplements(c4, a4); r.Holds {
		t.Error("everywhere should reject unreachable 3→0")
	}
}

func TestBoxUnionSemantics(t *testing.T) {
	c := NewBuilder("c", 3).AddTransition(0, 1).AddTransition(1, 1).
		AddTransition(2, 2).SetInit(0, 2).MustBuild()
	w := NewBuilder("w", 3).AddTransition(0, 0).AddTransition(1, 2).
		AddTransition(2, 0).SetInit(0).MustBuild()
	cw, err := Box(c, w)
	if err != nil {
		t.Fatal(err)
	}
	wantEdges := [][2]int{{0, 0}, {0, 1}, {1, 1}, {1, 2}, {2, 0}, {2, 2}}
	for _, e := range wantEdges {
		if !cw.HasTransition(e[0], e[1]) {
			t.Errorf("box missing %v", e)
		}
	}
	if cw.NumTransitions() != len(wantEdges) {
		t.Errorf("box has %d transitions, want %d", cw.NumTransitions(), len(wantEdges))
	}
	if got := cw.Init(); len(got) != 1 || got[0] != 0 {
		t.Errorf("box init = %v, want [0]", got)
	}
	if !strings.Contains(cw.Name(), "[]") {
		t.Errorf("box name = %q", cw.Name())
	}
}

func TestBoxErrors(t *testing.T) {
	c := NewBuilder("c", 2).AddTransition(0, 0).AddTransition(1, 1).SetInit(0).MustBuild()
	w3 := NewBuilder("w", 3).AddTransition(0, 0).AddTransition(1, 1).
		AddTransition(2, 2).SetInit(0).MustBuild()
	if _, err := Box(c, w3); err == nil {
		t.Error("mismatched state spaces accepted")
	}
	// No common initial state.
	w2 := NewBuilder("w", 2).AddTransition(0, 0).AddTransition(1, 1).SetInit(1).MustBuild()
	if _, err := Box(c, w2); err == nil {
		t.Error("empty common init accepted")
	}
}

// withInit rebuilds s with the given initial states, keeping transitions.
func withInit(s *System, init []int) *System {
	b := NewBuilder(s.Name(), s.NumStates())
	for _, e := range s.Transitions() {
		b.AddTransition(e[0], e[1])
	}
	return b.SetInit(init...).MustBuild()
}

// Lemma 0: [C ⇒ A] ∧ [W' ⇒ W] ⇒ [(C ▯ W') ⇒ (A ▯ W)] — property-tested.
func TestLemma0Property(t *testing.T) {
	rng := seeded.New(23)
	for i := 0; i < 200; i++ {
		a := Random(rng, "a", 2+rng.Intn(10), 2.2)
		w := withInit(Random(rng, "w", a.NumStates(), 1.8), a.Init())
		c := RandomSub(rng, "c", a)
		wp := RandomSub(rng, "w'", w)
		cw, err1 := Box(c, wp)
		aw, err2 := Box(a, w)
		if err1 != nil || err2 != nil {
			// Init sets may fail to intersect only if Random made them
			// differ; RandomSub copies inits, so neither should fail.
			t.Fatalf("iter %d: box errors %v %v", i, err1, err2)
		}
		if r := EverywhereImplements(cw, aw); !r.Holds {
			t.Fatalf("iter %d: Lemma 0 violated: %v", i, r)
		}
	}
}

// Theorem 1: [C ⇒ A] ∧ (A ▯ W stabilizing to A) ∧ [W' ⇒ W] ⇒
// C ▯ W' stabilizing to A — property-tested.
func TestTheorem1Property(t *testing.T) {
	rng := seeded.New(31)
	tested := 0
	for i := 0; i < 600; i++ {
		a := Random(rng, "a", 2+rng.Intn(10), 2.0)
		w := withInit(Random(rng, "w", a.NumStates(), 1.5), a.Init())
		aw, err := Box(a, w)
		if err != nil {
			continue
		}
		if ok, _ := StabilizingTo(aw, a); !ok {
			continue
		}
		c := RandomSub(rng, "c", a)
		wp := RandomSub(rng, "w'", w)
		cw, err := Box(c, wp)
		if err != nil {
			continue
		}
		tested++
		if ok, l := StabilizingTo(cw, a); !ok {
			t.Fatalf("iter %d: Theorem 1 violated: %v", i, l)
		}
	}
	if tested < 10 {
		t.Fatalf("only %d qualifying samples", tested)
	}
}

func TestStabilizingToDisjointSpaces(t *testing.T) {
	c := NewBuilder("c", 2).AddTransition(0, 1).AddTransition(1, 0).SetInit(0).MustBuild()
	a := NewBuilder("a", 3).AddChain(0, 1, 2).AddTransition(2, 2).SetInit(0).MustBuild()
	if ok, l := StabilizingTo(c, a); ok || l == nil {
		t.Error("mismatched spaces should fail with a lasso")
	}
}

func TestStabilizingLassoIsRealCycle(t *testing.T) {
	// 0→1→2→0 cycle outside legit set of a (legit = {3}).
	c := NewBuilder("c", 4).AddChain(0, 1, 2, 0).AddTransition(3, 3).SetInit(3).MustBuild()
	a := NewBuilder("a", 4).AddTransition(3, 3).
		AddTransition(0, 1).AddTransition(1, 2).AddTransition(2, 0).
		SetInit(3).MustBuild()
	// c's 0-1-2 cycle uses transitions that ARE a-transitions but lie
	// outside a's legitimate set, so c must not stabilize to a.
	ok, l := StabilizingTo(c, a)
	if ok {
		t.Fatal("expected non-stabilizing")
	}
	// Verify the returned cycle is a real cycle of c ending where BadEdge
	// departs.
	for i := 0; i+1 < len(l.Cycle); i++ {
		u, v := l.Cycle[i], l.Cycle[i+1]
		if !c.HasTransition(u, v) {
			t.Errorf("lasso step %d→%d not a transition of c", u, v)
		}
	}
	if l.Cycle[0] != l.BadEdge[1] || l.Cycle[len(l.Cycle)-1] != l.BadEdge[0] {
		t.Errorf("lasso %v does not close through bad edge %v", l.Cycle, l.BadEdge)
	}
}

// Soundness spot-check of StabilizingTo against brute-force path
// exploration on tiny systems: if the checker says stabilizing, then no
// lasso (stem ≤ n, cycle ≤ n) violates it; if not stabilizing, the returned
// lasso must be a genuine violating computation.
func TestStabilizingToAgainstBruteForce(t *testing.T) {
	rng := seeded.New(47)
	for iter := 0; iter < 150; iter++ {
		n := 2 + rng.Intn(5)
		a := Random(rng, "a", n, 1.7)
		c := Random(rng, "c", n, 1.7)
		got, l := StabilizingTo(c, a)

		legit := a.Legitimate()
		bad := func(u, v int) bool {
			return !(legit[u] && legit[v] && a.HasTransition(u, v))
		}
		// Brute force: does any cycle of c contain a bad edge? Enumerate
		// edges and check same-SCC via reachability.
		reach := make([][]bool, n)
		for u := 0; u < n; u++ {
			reach[u] = c.Reachable([]int{u})
		}
		want := true
		for _, e := range c.Transitions() {
			if bad(e[0], e[1]) && reach[e[1]][e[0]] {
				want = false
				break
			}
		}
		if got != want {
			t.Fatalf("iter %d: StabilizingTo = %v, brute force = %v", iter, got, want)
		}
		if !got {
			// The lasso must loop: cycle closes via bad edge.
			if l == nil || !bad(l.BadEdge[0], l.BadEdge[1]) {
				t.Fatalf("iter %d: lasso missing or edge not bad: %v", iter, l)
			}
		}
	}
}
