package graybox

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/seeded"
)

func TestProductBasics(t *testing.T) {
	// Two 2-state components: a toggler and a self-looper.
	toggle := NewBuilder("t", 2).AddTransition(0, 1).AddTransition(1, 0).SetInit(0).MustBuild()
	still := NewBuilder("s", 2).AddTransition(0, 0).AddTransition(1, 1).SetInit(1).MustBuild()
	p, err := Product("p", toggle, still)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStates() != 4 {
		t.Fatalf("states = %d", p.NumStates())
	}
	// Init: (0,1) → encoded 0 + 1*2 = 2.
	if got := p.Init(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("init = %v, want [2]", got)
	}
	// From (0,1): toggle 0→1 yields (1,1)=3; still 1→1 yields (0,1)=2.
	if !p.HasTransition(2, 3) || !p.HasTransition(2, 2) {
		t.Error("missing expected transitions from (0,1)")
	}
	// No synchronous double-step: (0,1) → (1,0) = 1 must not exist.
	if p.HasTransition(2, 1) {
		t.Error("product has a synchronous two-component step")
	}
}

func TestProductErrors(t *testing.T) {
	if _, err := Product("p"); err == nil {
		t.Error("empty product accepted")
	}
	big := NewBuilder("b", 2048).SetInit(0)
	for i := 0; i < 2048; i++ {
		big.AddTransition(i, i)
	}
	bigSys := big.MustBuild()
	if _, err := Product("p", bigSys, bigSys); err == nil {
		t.Error("oversized product accepted")
	}
}

func TestTupleCodecRoundTrip(t *testing.T) {
	rng := seeded.New(1)
	parts := []*System{
		Random(rng, "a", 3, 1.5),
		Random(rng, "b", 4, 1.5),
		Random(rng, "c", 2, 1.5),
	}
	c := NewTupleCodec(parts)
	tuple := make([]int, 3)
	for s := 0; s < 24; s++ {
		c.Decode(s, tuple)
		if got := c.Encode(tuple); got != s {
			t.Fatalf("round trip %d → %v → %d", s, tuple, got)
		}
	}
}

// Lemma 2: (∀i: [C_i ⇒ A_i]) ⇒ [C ⇒ A] for the products — property test.
func TestLemma2Property(t *testing.T) {
	rng := seeded.New(77)
	for iter := 0; iter < 120; iter++ {
		k := 2 + rng.Intn(2)
		as := make([]*System, k)
		cs := make([]*System, k)
		for i := range as {
			as[i] = Random(rng, "a", 2+rng.Intn(3), 1.7)
			cs[i] = RandomSub(rng, "c", as[i])
		}
		a, err := Product("A", as...)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Product("C", cs...)
		if err != nil {
			t.Fatal(err)
		}
		if r := EverywhereImplements(c, a); !r.Holds {
			t.Fatalf("iter %d: Lemma 2 violated: %v", iter, r)
		}
		if r := Implements(c, a); !r.Holds {
			t.Fatalf("iter %d: init-relative product implementation violated: %v", iter, r)
		}
	}
}

// Lemma 3: (∀i: [C_i ⇒ A_i]) ∧ (∀i: [W'_i ⇒ W_i]) ⇒ [(C ▯ W') ⇒ (A ▯ W)]
// over products — property test.
func TestLemma3Property(t *testing.T) {
	rng := seeded.New(88)
	for iter := 0; iter < 80; iter++ {
		k := 2
		as := make([]*System, k)
		cs := make([]*System, k)
		ws := make([]*System, k)
		wps := make([]*System, k)
		for i := range as {
			as[i] = Random(rng, "a", 2+rng.Intn(3), 1.7)
			cs[i] = RandomSub(rng, "c", as[i])
			ws[i] = withInit(Random(rng, "w", as[i].NumStates(), 1.4), as[i].Init())
			wps[i] = RandomSub(rng, "w'", ws[i])
		}
		a, _ := Product("A", as...)
		c, _ := Product("C", cs...)
		w, _ := Product("W", ws...)
		wp, _ := Product("W'", wps...)
		aw, err1 := Box(a, w)
		cwp, err2 := Box(c, wp)
		if err1 != nil || err2 != nil {
			t.Fatalf("iter %d: box errors %v %v", iter, err1, err2)
		}
		if r := EverywhereImplements(cwp, aw); !r.Holds {
			t.Fatalf("iter %d: Lemma 3 violated: %v", iter, r)
		}
	}
}

// Theorem 4 (stabilization via local everywhere specifications): with the
// Lemma 3 premises plus A ▯ W stabilizing to A, C ▯ W' is stabilizing to A.
func TestTheorem4Property(t *testing.T) {
	rng := seeded.New(99)
	tested := 0
	for iter := 0; iter < 600 && tested < 25; iter++ {
		k := 2
		as := make([]*System, k)
		cs := make([]*System, k)
		ws := make([]*System, k)
		wps := make([]*System, k)
		for i := range as {
			as[i] = Random(rng, "a", 2+rng.Intn(2), 1.5)
			cs[i] = RandomSub(rng, "c", as[i])
			ws[i] = withInit(Random(rng, "w", as[i].NumStates(), 1.3), as[i].Init())
			wps[i] = RandomSub(rng, "w'", ws[i])
		}
		a, _ := Product("A", as...)
		c, _ := Product("C", cs...)
		w, _ := Product("W", ws...)
		wp, _ := Product("W'", wps...)
		aw, err := Box(a, w)
		if err != nil {
			continue
		}
		if ok, _ := StabilizingTo(aw, a); !ok {
			continue
		}
		cwp, err := Box(c, wp)
		if err != nil {
			continue
		}
		tested++
		if ok, l := StabilizingTo(cwp, a); !ok {
			t.Fatalf("iter %d: Theorem 4 violated: %v", iter, l)
		}
	}
	if tested < 10 {
		t.Fatalf("only %d qualifying samples", tested)
	}
}
