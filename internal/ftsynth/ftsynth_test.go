package ftsynth

import (
	"errors"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/graybox"
	"github.com/graybox-stabilization/graybox/internal/seeded"
)

// A small worked spec: states 0..4; legitimate chain 0→1→2→0; state 3 is a
// perturbed state; state 4 is bad. Faults can kick 1→3, and 3→4 is an
// unsafe slide the spec itself would take.
func workedProblem() Problem {
	spec := graybox.NewBuilder("spec", 5).
		AddChain(0, 1, 2, 0).
		AddTransition(3, 4). // spec would slide into the bad state
		AddTransition(3, 0). // ...but can also return home
		AddTransition(4, 4).
		SetInit(0).
		MustBuild()
	return Problem{
		Spec:   spec,
		Faults: [][2]int{{1, 3}},
		Bad:    []bool{false, false, false, false, true},
	}
}

func TestUnsafeClosure(t *testing.T) {
	p := workedProblem()
	ms := p.Unsafe()
	want := []bool{false, false, false, false, true}
	for s, w := range want {
		if ms[s] != w {
			t.Errorf("Unsafe[%d] = %v, want %v", s, ms[s], w)
		}
	}
	// Add a fault 3→4: now 3 is unsafe too (a fault alone dooms it).
	p.Faults = append(p.Faults, [2]int{3, 4})
	ms = p.Unsafe()
	if !ms[3] {
		t.Error("fault-closure missed state 3")
	}
	// And transitively 1 (fault 1→3, fault 3→4).
	if !ms[1] {
		t.Error("fault-closure missed state 1")
	}
}

func TestFailSafePrunesUnsafeSlide(t *testing.T) {
	p := workedProblem()
	fs, err := SynthesizeFailSafe(p)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Permits(3, 4) {
		t.Error("fail-safe permits the unsafe slide 3→4")
	}
	if !fs.Permits(3, 0) || !fs.Permits(0, 1) {
		t.Error("fail-safe pruned safe transitions")
	}
	wrapped := fs.Apply(p.Spec)
	if wrapped.HasTransition(3, 4) {
		t.Error("wrapped system keeps 3→4")
	}
	if bad := VerifyFailSafe(p, wrapped); bad != -1 {
		t.Errorf("bad state %d reachable in wrapped system", bad)
	}
	// The unwrapped spec does reach the bad state under the fault.
	if bad := VerifyFailSafe(p, p.Spec); bad != 4 {
		t.Errorf("unwrapped spec: VerifyFailSafe = %d, want 4", bad)
	}
}

func TestFailSafeHaltsWhereNothingSafeRemains(t *testing.T) {
	// State 1's only spec transition enters the bad state 2: fail-safe
	// must halt there (self-loop), sacrificing liveness for safety.
	spec := graybox.NewBuilder("s", 3).
		AddTransition(0, 0).
		AddTransition(1, 2).
		AddTransition(2, 2).
		SetInit(0).
		MustBuild()
	p := Problem{Spec: spec, Bad: []bool{false, false, true}}
	fs, err := SynthesizeFailSafe(p)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := fs.Apply(spec)
	if !wrapped.HasTransition(1, 1) {
		t.Error("halting self-loop missing at state 1")
	}
	if wrapped.HasTransition(1, 2) {
		t.Error("unsafe transition survived")
	}
}

func TestFailSafeInitUnsafe(t *testing.T) {
	spec := graybox.NewBuilder("s", 2).
		AddTransition(0, 0).AddTransition(1, 1).SetInit(0).MustBuild()
	p := Problem{Spec: spec, Bad: []bool{true, false}}
	if _, err := SynthesizeFailSafe(p); !errors.Is(err, ErrInitUnsafe) {
		t.Errorf("err = %v, want ErrInitUnsafe", err)
	}
}

func TestValidation(t *testing.T) {
	spec := graybox.NewBuilder("s", 2).
		AddTransition(0, 0).AddTransition(1, 1).SetInit(0).MustBuild()
	if _, err := SynthesizeFailSafe(Problem{Spec: spec, Bad: []bool{true}}); err == nil {
		t.Error("bad Bad length accepted")
	}
	if _, err := SynthesizeFailSafe(Problem{Spec: spec, Faults: [][2]int{{0, 9}}}); err == nil {
		t.Error("out-of-range fault accepted")
	}
	if _, err := SynthesizeMasking(Problem{Spec: spec, Candidates: [][2]int{{0, 9}}}); err == nil {
		t.Error("out-of-range candidate accepted")
	}
}

func TestMaskingWorkedExample(t *testing.T) {
	p := workedProblem()
	m, err := SynthesizeMasking(p)
	if err != nil {
		t.Fatal(err)
	}
	// State 3 (fault-perturbed) must recover.
	if m.Recovery(3) < 0 || m.Distance(3) < 1 {
		t.Errorf("no recovery from 3: next=%d dist=%d", m.Recovery(3), m.Distance(3))
	}
	// Legitimate states need none.
	for _, s := range []int{0, 1, 2} {
		if m.Recovery(s) != -1 || m.Distance(s) != 0 {
			t.Errorf("state %d: recovery=%d dist=%d", s, m.Recovery(s), m.Distance(s))
		}
	}
	wrapped := m.Apply(p.Spec)
	if msg := VerifyMasking(p, wrapped); msg != "" {
		t.Errorf("masking verification failed: %s", msg)
	}
	// Note: masking promises recovery on the FAULT SPAN, not from every
	// state in Σ — the unreachable bad state 4 halts in place, so the
	// global StabilizingTo check would (correctly) reject the wrapped
	// system while VerifyMasking accepts it.
}

func TestMaskingLegitUnsafe(t *testing.T) {
	// A fault from a legitimate state straight into bad: masking must
	// refuse.
	spec := graybox.NewBuilder("s", 2).
		AddTransition(0, 0).AddTransition(1, 1).SetInit(0).MustBuild()
	p := Problem{
		Spec:   spec,
		Faults: [][2]int{{0, 1}},
		Bad:    []bool{false, true},
	}
	if _, err := SynthesizeMasking(p); !errors.Is(err, ErrLegitUnsafe) {
		t.Errorf("err = %v, want ErrLegitUnsafe", err)
	}
}

func TestMaskingNoRecovery(t *testing.T) {
	// Candidates that cannot bring the perturbed state home.
	p := workedProblem()
	p.Candidates = [][2]int{{0, 1}} // useless: nothing leaves state 3
	if _, err := SynthesizeMasking(p); !errors.Is(err, ErrNoRecovery) {
		t.Errorf("err = %v, want ErrNoRecovery", err)
	}
}

func TestMaskingWithLocalCandidates(t *testing.T) {
	p := workedProblem()
	p.Candidates = [][2]int{{3, 0}} // exactly the safe return home
	m, err := SynthesizeMasking(p)
	if err != nil {
		t.Fatal(err)
	}
	if m.Recovery(3) != 0 {
		t.Errorf("Recovery(3) = %d, want 0", m.Recovery(3))
	}
}

// Graybox reusability: one masking tolerance, synthesized from the spec,
// applies to every everywhere-implementation.
func TestMaskingReusableAcrossImplementations(t *testing.T) {
	rng := seeded.New(31)
	verified := 0
	for iter := 0; iter < 200; iter++ {
		n := 4 + rng.Intn(10)
		spec := graybox.Random(rng, "spec", n, 2.0)
		// Random bad states outside the legitimate set; random faults
		// from legitimate to arbitrary states.
		legit := spec.Legitimate()
		bad := make([]bool, n)
		nBad := 0
		for s := 0; s < n; s++ {
			if !legit[s] && rng.Intn(3) == 0 {
				bad[s] = true
				nBad++
			}
		}
		var faults [][2]int
		for f := 0; f < 1+rng.Intn(3); f++ {
			faults = append(faults, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		p := Problem{Spec: spec, Faults: faults, Bad: bad}
		m, err := SynthesizeMasking(p)
		if err != nil {
			continue // unsynthesizable instance: fine, skip
		}
		verified++
		for impl := 0; impl < 2; impl++ {
			c := graybox.RandomSub(rng, "c", spec)
			wrapped := m.Apply(c)
			if msg := VerifyMasking(p, wrapped); msg != "" {
				t.Fatalf("iter %d impl %d: %s", iter, impl, msg)
			}
			if s := VerifyFailSafe(p, wrapped); s >= 0 {
				t.Fatalf("iter %d impl %d: bad state %d reachable", iter, impl, s)
			}
		}
	}
	if verified < 30 {
		t.Fatalf("only %d synthesizable instances", verified)
	}
}

// Fail-safe reusability, property-tested the same way.
func TestFailSafeReusableAcrossImplementations(t *testing.T) {
	rng := seeded.New(57)
	verified := 0
	for iter := 0; iter < 200; iter++ {
		n := 4 + rng.Intn(10)
		spec := graybox.Random(rng, "spec", n, 2.0)
		bad := make([]bool, n)
		for s := 0; s < n; s++ {
			if rng.Intn(5) == 0 {
				bad[s] = true
			}
		}
		var faults [][2]int
		for f := 0; f < 1+rng.Intn(3); f++ {
			faults = append(faults, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		p := Problem{Spec: spec, Faults: faults, Bad: bad}
		fs, err := SynthesizeFailSafe(p)
		if err != nil {
			continue
		}
		verified++
		for impl := 0; impl < 2; impl++ {
			c := graybox.RandomSub(rng, "c", spec)
			wrapped := fs.Apply(c)
			if s := VerifyFailSafe(p, wrapped); s >= 0 {
				t.Fatalf("iter %d impl %d: bad state %d reachable", iter, impl, s)
			}
		}
	}
	if verified < 30 {
		t.Fatalf("only %d synthesizable instances", verified)
	}
}
