package graybox

import (
	"errors"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/seeded"
)

func TestBuildValidatesTotality(t *testing.T) {
	_, err := NewBuilder("x", 2).AddTransition(0, 1).SetInit(0).Build()
	if !errors.Is(err, ErrNotTotal) {
		t.Errorf("Build = %v, want ErrNotTotal", err)
	}
}

func TestBuildValidatesInit(t *testing.T) {
	_, err := NewBuilder("x", 1).AddTransition(0, 0).Build()
	if !errors.Is(err, ErrNoInit) {
		t.Errorf("Build = %v, want ErrNoInit", err)
	}
}

func TestBuildRejectsOutOfRange(t *testing.T) {
	if _, err := NewBuilder("x", 1).AddTransition(0, 5).SetInit(0).Build(); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if _, err := NewBuilder("x", 1).AddTransition(5, 0).SetInit(0).Build(); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := NewBuilder("x", 1).AddTransition(0, 0).SetInit(7).Build(); err == nil {
		t.Error("out-of-range init accepted")
	}
}

func TestTotalize(t *testing.T) {
	s := NewBuilder("x", 3).AddTransition(0, 1).SetInit(0).Totalize().MustBuild()
	if !s.HasTransition(1, 1) || !s.HasTransition(2, 2) {
		t.Error("Totalize did not add self-loops")
	}
	if s.HasTransition(0, 0) {
		t.Error("Totalize added a self-loop to a state with successors")
	}
}

func TestSystemAccessors(t *testing.T) {
	s := NewBuilder("sys", 3).
		AddChain(0, 1, 2).
		AddTransition(2, 2).
		SetInit(0, 1).
		MustBuild()
	if s.Name() != "sys" || s.NumStates() != 3 {
		t.Error("Name/NumStates wrong")
	}
	if got := s.Init(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Init = %v", got)
	}
	if !s.IsInit(1) || s.IsInit(2) {
		t.Error("IsInit wrong")
	}
	if !s.HasTransition(0, 1) || s.HasTransition(1, 0) {
		t.Error("HasTransition wrong")
	}
	if got := s.Successors(1); len(got) != 1 || got[0] != 2 {
		t.Errorf("Successors(1) = %v", got)
	}
	if s.NumTransitions() != 3 {
		t.Errorf("NumTransitions = %d, want 3", s.NumTransitions())
	}
	tr := s.Transitions()
	if len(tr) != 3 || tr[0] != [2]int{0, 1} {
		t.Errorf("Transitions = %v", tr)
	}
}

func TestInitReturnsCopy(t *testing.T) {
	s := NewBuilder("x", 1).AddTransition(0, 0).SetInit(0).MustBuild()
	in := s.Init()
	in[0] = 99
	if got := s.Init()[0]; got != 0 {
		t.Errorf("Init aliased internal storage: %d", got)
	}
}

func TestReachableAndLegitimate(t *testing.T) {
	// 0→1→2, 3 isolated (self-loop), init {0}.
	s := NewBuilder("x", 4).
		AddChain(0, 1, 2).
		AddTransition(2, 2).
		AddTransition(3, 3).
		SetInit(0).
		MustBuild()
	legit := s.Legitimate()
	want := []bool{true, true, true, false}
	for i := range want {
		if legit[i] != want[i] {
			t.Errorf("Legitimate[%d] = %v, want %v", i, legit[i], want[i])
		}
	}
	r := s.Reachable([]int{3})
	if !r[3] || r[0] {
		t.Errorf("Reachable from 3 = %v", r)
	}
	// Out-of-range seeds are ignored.
	r = s.Reachable([]int{-1, 99})
	for i, v := range r {
		if v {
			t.Errorf("Reachable from invalid seeds marked %d", i)
		}
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on invalid system")
		}
	}()
	NewBuilder("bad", 1).MustBuild()
}

func TestAddChainDuplicatesIgnored(t *testing.T) {
	s := NewBuilder("x", 2).
		AddChain(0, 1, 0).
		AddTransition(0, 1). // duplicate
		SetInit(0).
		MustBuild()
	if s.NumTransitions() != 2 {
		t.Errorf("NumTransitions = %d, want 2", s.NumTransitions())
	}
}

func TestRandomIsTotal(t *testing.T) {
	rng := seeded.New(3)
	for i := 0; i < 20; i++ {
		s := Random(rng, "r", 1+rng.Intn(30), 1+rng.Float64()*3)
		for u := 0; u < s.NumStates(); u++ {
			if len(s.Successors(u)) == 0 {
				t.Fatalf("Random produced non-total system at state %d", u)
			}
		}
		if len(s.Init()) == 0 {
			t.Fatal("Random produced system without init")
		}
	}
}

func TestRandomSubIsEverywhereImplementation(t *testing.T) {
	rng := seeded.New(5)
	for i := 0; i < 30; i++ {
		a := Random(rng, "a", 2+rng.Intn(20), 2.5)
		c := RandomSub(rng, "c", a)
		if r := EverywhereImplements(c, a); !r.Holds {
			t.Fatalf("RandomSub not an everywhere implementation: %v", r)
		}
		if r := Implements(c, a); !r.Holds {
			t.Fatalf("RandomSub not an implementation: %v", r)
		}
	}
}
