package graybox

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/seeded"
)

// sameTransitions reports whether two systems have identical transition
// relations and initial states (names aside).
func sameTransitions(a, b *System) bool {
	if a.NumStates() != b.NumStates() || a.NumTransitions() != b.NumTransitions() {
		return false
	}
	for _, e := range a.Transitions() {
		if !b.HasTransition(e[0], e[1]) {
			return false
		}
	}
	ai, bi := a.Init(), b.Init()
	if len(ai) != len(bi) {
		return false
	}
	for i := range ai {
		if ai[i] != bi[i] {
			return false
		}
	}
	return true
}

// The ▯ operator is idempotent: A ▯ A = A.
func TestBoxIdempotent(t *testing.T) {
	rng := seeded.New(41)
	for i := 0; i < 100; i++ {
		a := Random(rng, "a", 2+rng.Intn(10), 2.0)
		aa, err := Box(a, a)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTransitions(a, aa) {
			t.Fatalf("iter %d: A ▯ A ≠ A", i)
		}
	}
}

// The ▯ operator is commutative: A ▯ B = B ▯ A.
func TestBoxCommutative(t *testing.T) {
	rng := seeded.New(43)
	for i := 0; i < 100; i++ {
		a := Random(rng, "a", 2+rng.Intn(10), 2.0)
		b := withInit(Random(rng, "b", a.NumStates(), 1.6), a.Init())
		ab, err1 := Box(a, b)
		ba, err2 := Box(b, a)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !sameTransitions(ab, ba) {
			t.Fatalf("iter %d: A ▯ B ≠ B ▯ A", i)
		}
	}
}

// The ▯ operator is associative: (A ▯ B) ▯ C = A ▯ (B ▯ C).
func TestBoxAssociative(t *testing.T) {
	rng := seeded.New(47)
	for i := 0; i < 100; i++ {
		a := Random(rng, "a", 2+rng.Intn(8), 1.8)
		b := withInit(Random(rng, "b", a.NumStates(), 1.5), a.Init())
		c := withInit(Random(rng, "c", a.NumStates(), 1.5), a.Init())
		ab, err := Box(a, b)
		if err != nil {
			t.Fatal(err)
		}
		abc1, err := Box(ab, c)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := Box(b, c)
		if err != nil {
			t.Fatal(err)
		}
		abc2, err := Box(a, bc)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTransitions(abc1, abc2) {
			t.Fatalf("iter %d: box not associative", i)
		}
	}
}

// Monotonicity of ⇒ under ▯ with a fixed wrapper: [C ⇒ A] implies
// [(C ▯ W) ⇒ (A ▯ W)] — the "monotonicity of ▯ w.r.t. [⇒]" step used
// inside the paper's proof of Lemma 0.
func TestBoxMonotoneProperty(t *testing.T) {
	rng := seeded.New(53)
	for i := 0; i < 100; i++ {
		a := Random(rng, "a", 2+rng.Intn(10), 2.0)
		c := RandomSub(rng, "c", a)
		w := withInit(Random(rng, "w", a.NumStates(), 1.5), a.Init())
		cw, err1 := Box(c, w)
		aw, err2 := Box(a, w)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if r := EverywhereImplements(cw, aw); !r.Holds {
			t.Fatalf("iter %d: monotonicity violated: %v", i, r)
		}
	}
}

// Transitivity of [⇒]: [C ⇒ B] ∧ [B ⇒ A] implies [C ⇒ A] — the other
// step in Lemma 0's proof.
func TestEverywhereImplementsTransitive(t *testing.T) {
	rng := seeded.New(59)
	for i := 0; i < 100; i++ {
		a := Random(rng, "a", 2+rng.Intn(10), 2.5)
		b := RandomSub(rng, "b", a)
		c := RandomSub(rng, "c", b)
		if r := EverywhereImplements(c, a); !r.Holds {
			t.Fatalf("iter %d: transitivity violated: %v", i, r)
		}
	}
}

// Stabilization is reflexive on systems whose every cycle is legitimate,
// and in particular [C ⇒ A] ∧ A stabilizing to A gives C stabilizing to A
// even when C prunes transitions (first observation of §2.1, tested again
// at the algebra level for regression).
func TestStabilizationPreservedUnderPruning(t *testing.T) {
	rng := seeded.New(61)
	found := 0
	for i := 0; i < 300 && found < 30; i++ {
		a := Random(rng, "a", 2+rng.Intn(8), 1.8)
		if ok, _ := SelfStabilizing(a); !ok {
			continue
		}
		found++
		c := RandomSub(rng, "c", a)
		if ok, l := StabilizingTo(c, a); !ok {
			t.Fatalf("iter %d: pruned system lost stabilization: %v", i, l)
		}
	}
	if found < 10 {
		t.Fatalf("only %d self-stabilizing samples", found)
	}
}
