package synth

import (
	"errors"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/graybox"
	"github.com/graybox-stabilization/graybox/internal/seeded"
)

// Synthesis fixes Figure 1's C: the strategy gives s* a recovery transition
// and the wrapped system stabilizes to A.
func TestSynthesizeRepairsFig1C(t *testing.T) {
	a := graybox.Fig1A()
	c := graybox.Fig1C()
	if ok, _ := graybox.StabilizingTo(c, a); ok {
		t.Fatal("precondition: C must not be stabilizing to A")
	}
	st, err := Synthesize(a, AllCandidates(a.NumStates()))
	if err != nil {
		t.Fatal(err)
	}
	// Strategy acts exactly on s* (the only illegitimate state of A).
	if got := st.Active(); len(got) != 1 || got[0] != graybox.Fig1Star {
		t.Errorf("Active = %v, want [s*]", got)
	}
	if st.Distance(graybox.Fig1Star) != 1 {
		t.Errorf("Distance(s*) = %d, want 1", st.Distance(graybox.Fig1Star))
	}
	// Overriding C at the strategy's states stabilizes it.
	wrapped := st.Wrapped(c)
	if ok, l := graybox.StabilizingTo(wrapped, a); !ok {
		t.Fatalf("wrapped C not stabilizing to A: %v", l)
	}
	// Interference freedom: legitimate transitions are untouched.
	for _, e := range a.Transitions() {
		u := e[0]
		if u == graybox.Fig1Star {
			continue
		}
		if !wrapped.HasTransition(e[0], e[1]) {
			t.Errorf("legit transition %v lost", e)
		}
	}
}

func TestSynthesizeUnreachable(t *testing.T) {
	// Two disconnected self-loop islands; candidates that never leave
	// state 1 make synthesis impossible.
	a := graybox.NewBuilder("a", 2).
		AddTransition(0, 0).
		AddTransition(1, 1).
		SetInit(0).
		MustBuild()
	_, err := Synthesize(a, [][2]int{{0, 1}}) // only 0→1, useless for state 1
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
	// With the right candidate it succeeds.
	st, err := Synthesize(a, [][2]int{{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Next(1) != 0 || st.Next(0) != -1 {
		t.Errorf("strategy = next(1)=%d next(0)=%d", st.Next(1), st.Next(0))
	}
}

func TestSynthesizeRejectsBadCandidates(t *testing.T) {
	a := graybox.NewBuilder("a", 1).AddTransition(0, 0).SetInit(0).MustBuild()
	if _, err := Synthesize(a, [][2]int{{0, 7}}); err == nil {
		t.Error("out-of-range candidate accepted")
	}
}

func TestAllCandidates(t *testing.T) {
	c := AllCandidates(3)
	if len(c) != 6 {
		t.Fatalf("len = %d, want 6", len(c))
	}
	for _, e := range c {
		if e[0] == e[1] {
			t.Errorf("self-loop candidate %v", e)
		}
	}
}

// Property: for random specs, synthesis over all candidates succeeds and the
// wrapped system is stabilizing and interference-free.
func TestSynthesizeRandomProperty(t *testing.T) {
	rng := seeded.New(99)
	for i := 0; i < 150; i++ {
		a := graybox.Random(rng, "a", 2+rng.Intn(15), 1.6)
		st, err := Synthesize(a, AllCandidates(a.NumStates()))
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		wrapped := st.Wrapped(a)
		if ok, l := graybox.StabilizingTo(wrapped, a); !ok {
			t.Fatalf("iter %d: wrapped not stabilizing: %v", i, l)
		}
		// Interference freedom: on legitimate states the wrapped system
		// has exactly a's transitions.
		legit := a.Legitimate()
		for u := 0; u < a.NumStates(); u++ {
			if !legit[u] {
				continue
			}
			au, wu := a.Successors(u), wrapped.Successors(u)
			if len(au) != len(wu) {
				t.Fatalf("iter %d: legit state %d transitions changed", i, u)
			}
			for k := range au {
				if au[k] != wu[k] {
					t.Fatalf("iter %d: legit state %d transitions changed", i, u)
				}
			}
		}
		// Distances are bounded by the state count.
		if st.MaxDistance() >= a.NumStates() {
			t.Fatalf("iter %d: MaxDistance %d ≥ n", i, st.MaxDistance())
		}
		// Following the strategy from any state reaches L within
		// MaxDistance steps.
		for s := 0; s < a.NumStates(); s++ {
			cur, steps := s, 0
			for st.Next(cur) >= 0 {
				cur = st.Next(cur)
				steps++
				if steps > a.NumStates() {
					t.Fatalf("iter %d: strategy loops from %d", i, s)
				}
			}
			if !legit[cur] {
				t.Fatalf("iter %d: strategy from %d ends outside L", i, s)
			}
			if steps != st.Distance(s) {
				t.Fatalf("iter %d: distance mismatch at %d: %d vs %d", i, s, steps, st.Distance(s))
			}
		}
	}
}

// The synthesized strategy is graybox: it is a function of A alone, so the
// same strategy stabilizes EVERY everywhere-implementation of A (the
// synthesis analogue of Theorem 8).
func TestStrategyReusableAcrossImplementations(t *testing.T) {
	rng := seeded.New(123)
	for i := 0; i < 100; i++ {
		a := graybox.Random(rng, "a", 3+rng.Intn(10), 2.0)
		st, err := Synthesize(a, AllCandidates(a.NumStates()))
		if err != nil {
			t.Fatal(err)
		}
		for impl := 0; impl < 3; impl++ {
			c := graybox.RandomSub(rng, "c", a)
			wrapped := st.Wrapped(c)
			if ok, l := graybox.StabilizingTo(wrapped, a); !ok {
				t.Fatalf("iter %d impl %d: strategy failed on an implementation: %v", i, impl, l)
			}
		}
	}
}
