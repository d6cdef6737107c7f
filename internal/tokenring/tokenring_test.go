package tokenring

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadSizes(t *testing.T) {
	for _, c := range [][2]int{{1, 3}, {3, 1}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", c[0], c[1])
				}
			}()
			New(c[0], c[1])
		}()
	}
}

func TestInitialStateIsLegitimate(t *testing.T) {
	r := New(5, 5)
	if !r.Legitimate() {
		t.Fatal("all-zero state not legitimate")
	}
	// All equal ⇒ only machine 0 privileged.
	if got := r.PrivilegedSet(); len(got) != 1 || got[0] != 0 {
		t.Errorf("PrivilegedSet = %v", got)
	}
}

// TestPickPrivilegedMatchesSetDraw: the daemon's pick equals the draw it
// replaced, PrivilegedSet()[rng.Intn(len)], from the same rng state, so
// every E10/E14 run moves the same machines.
func TestPickPrivilegedMatchesSetDraw(t *testing.T) {
	corrupt := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		r := New(2+trial%9, 3+trial%7)
		r.Corrupt(corrupt)
		seed := int64(trial)
		priv := r.PrivilegedSet()
		want := priv[rand.New(rand.NewSource(seed)).Intn(len(priv))]
		if got := r.pickPrivileged(rand.New(rand.NewSource(seed))); got != want {
			t.Fatalf("ring %s: pickPrivileged = %d, PrivilegedSet draw = %d", r, got, want)
		}
	}
}

func TestAccessors(t *testing.T) {
	r := New(3, 4)
	if r.N() != 3 || r.K() != 4 {
		t.Error("N/K wrong")
	}
	r.SetX(1, 7) // 7 mod 4 = 3
	if r.X(1) != 3 {
		t.Errorf("X(1) = %d, want 3", r.X(1))
	}
	r.SetX(1, -1) // normalized into range
	if r.X(1) != 3 {
		t.Errorf("X(1) = %d, want 3 after negative set", r.X(1))
	}
}

func TestStepOnlyWhenPrivileged(t *testing.T) {
	r := New(3, 3)
	// Machine 1 not privileged (x[1] == x[0]).
	if r.Step(1) {
		t.Error("unprivileged machine moved")
	}
	if !r.Step(0) {
		t.Error("privileged bottom machine refused to move")
	}
	if r.X(0) != 1 {
		t.Errorf("x[0] = %d, want 1", r.X(0))
	}
	// Now machine 1 is privileged and copies.
	if !r.Step(1) || r.X(1) != 1 {
		t.Error("copy move failed")
	}
}

func TestTokenCirculation(t *testing.T) {
	r := New(4, 4)
	visited, legit := r.Circulate(16)
	if !legit {
		t.Fatal("legitimacy lost during circulation")
	}
	for i, v := range visited {
		if !v {
			t.Errorf("machine %d never held the token", i)
		}
	}
}

func TestStringMarksPrivilege(t *testing.T) {
	r := New(3, 3)
	s := r.String()
	if !strings.Contains(s, "*") {
		t.Errorf("String = %q, no privilege mark", s)
	}
}

// Dijkstra's theorem, property-tested: for K ≥ n, every corrupted state
// converges under the randomized central daemon, and legitimacy is closed
// afterwards.
func TestConvergenceFromArbitraryStates(t *testing.T) {
	f := func(seed int64, nRaw, extra uint8) bool {
		n := 2 + int(nRaw%8)
		k := n + int(extra%4) // K ≥ n
		rng := rand.New(rand.NewSource(seed))
		r := New(n, k)
		r.Corrupt(rng)
		moves, ok := r.Converge(rng, 10*n*n*k)
		if !ok {
			return false
		}
		_ = moves
		// Closure: 50 further daemon moves keep legitimacy.
		for i := 0; i < 50; i++ {
			if !r.Legitimate() {
				return false
			}
			p := r.PrivilegedSet()
			r.Step(p[rng.Intn(len(p))])
		}
		return r.Legitimate()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// At least one machine is privileged in EVERY state (no deadlock), another
// of Dijkstra's lemmas.
func TestNoDeadlockProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw%8)
		rng := rand.New(rand.NewSource(seed))
		r := New(n, n+1)
		r.Corrupt(rng)
		return len(r.PrivilegedSet()) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestConvergeStopsAtLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := New(6, 6)
	r.Corrupt(rng)
	moves, _ := r.Converge(rng, 1)
	if moves > 1 {
		t.Errorf("moves = %d beyond limit", moves)
	}
}

func TestCirculateDetectsIllegitimacy(t *testing.T) {
	r := New(4, 4)
	r.SetX(0, 1)
	r.SetX(2, 3) // multiple privileges
	if r.Legitimate() {
		t.Fatal("setup failed: state should be illegitimate")
	}
	if _, legit := r.Circulate(4); legit {
		t.Error("Circulate reported legitimacy from an illegitimate state")
	}
}

// Deterministic convergence measurement: same seed, same trajectory.
func TestConvergeDeterministic(t *testing.T) {
	run := func() int {
		rng := rand.New(rand.NewSource(99))
		r := New(7, 8)
		r.Corrupt(rng)
		moves, ok := r.Converge(rng, 100000)
		if !ok {
			t.Fatal("did not converge")
		}
		return moves
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed diverged: %d vs %d", a, b)
	}
}
