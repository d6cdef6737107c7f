package tokenring

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/seeded"
)

// TestDaemonSimDeterminism: the engine-backed daemon is reproducible from
// SimConfig.Seed alone — same seed, same moves and same final counters.
func TestDaemonSimDeterminism(t *testing.T) {
	run := func(seed int64) (int, []int) {
		s := NewSim(SimConfig{N: 7, Seed: seed})
		s.CorruptAll()
		s.Run(200)
		return s.Moves(), s.ring.x
	}
	m1, x1 := run(42)
	m2, x2 := run(42)
	if m1 != m2 {
		t.Fatalf("same seed, different move counts: %d vs %d", m1, m2)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("same seed, different x[%d]: %d vs %d", i, x1[i], x2[i])
		}
	}
	m3, _ := run(43)
	s3 := NewSim(SimConfig{N: 7, Seed: 43})
	s3.CorruptAll()
	s3.Run(200)
	if m3 != s3.Moves() {
		t.Fatalf("seed 43 irreproducible: %d vs %d", m3, s3.Moves())
	}
}

// TestDaemonSimConverges: from whole-ring corruption the daemon always
// reaches a legitimate state within Dijkstra's bound, and stays there.
func TestDaemonSimConverges(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s := NewSim(SimConfig{N: 5, Seed: seed})
		s.CorruptAll()
		limit := 100 * 5 * 5 * 6
		moves, ok := s.Converge(limit)
		if !ok {
			t.Fatalf("seed %d: no convergence within %d moves", seed, limit)
		}
		if moves > limit {
			t.Fatalf("seed %d: reported %d moves over limit %d", seed, moves, limit)
		}
		if !s.Circulates() {
			t.Fatalf("seed %d: the privilege did not visit every machine in n moves after convergence", seed)
		}
		// Legitimacy is closed under daemon moves.
		s.Run(50)
		if !s.ring.Legitimate() {
			t.Fatalf("seed %d: left legitimate states after convergence", seed)
		}
	}
}

// TestCirculatesNeedsALegitimateRing: a ring with two privileges does not
// circulate, however its moves go.
func TestCirculatesNeedsALegitimateRing(t *testing.T) {
	s := NewSim(SimConfig{N: 4, Seed: 1})
	s.ring.SetX(2, 1)
	if s.ring.Legitimate() || s.Circulates() {
		t.Fatalf("ring %v: Legitimate %v, Circulates true, want both false", s.ring, s.ring.Legitimate())
	}
}

// TestDaemonSimConvergeAlreadyLegit: a fresh ring is legitimate; Converge
// returns immediately with zero moves.
func TestDaemonSimConvergeAlreadyLegit(t *testing.T) {
	s := NewSim(SimConfig{N: 4, Seed: 1})
	moves, ok := s.Converge(1000)
	if !ok || moves != 0 {
		t.Fatalf("fresh ring: Converge = (%d, %v), want (0, true)", moves, ok)
	}
}

// TestDaemonSimFaultPerturb: the unified fault surface's only applicable
// fault on this substrate overwrites one machine's counter.
func TestDaemonSimFaultPerturb(t *testing.T) {
	s := NewSim(SimConfig{N: 4, Seed: 9})
	rng := seeded.New(7)
	if !s.FaultPerturb(2, rng) {
		t.Fatal("FaultPerturb(2) = false, want true")
	}
	if s.FaultPerturb(-1, rng) || s.FaultPerturb(4, rng) {
		t.Fatal("FaultPerturb out of range should report false")
	}
	// Message faults are structurally inapplicable: no channels.
	if s.Channels() != nil {
		t.Fatal("token ring should enumerate no channels")
	}
}

// TestDaemonMoveAllocatesNothing: one central-daemon move (pick a
// privileged machine, fire it, re-arm the tick) allocates nothing, with
// several machines privileged and with observability attached.
func TestDaemonMoveAllocatesNothing(t *testing.T) {
	s := NewSim(SimConfig{N: 7, Seed: 5, Obs: obs.New(obs.Options{TraceCapacity: 64})})
	s.CorruptAll()
	s.Run(1)
	before := s.Moves()
	allocs := testing.AllocsPerRun(100, func() { s.Run(1) })
	if allocs != 0 {
		t.Errorf("a daemon move allocates %.2f times, want 0", allocs)
	}
	if got := s.Moves() - before; got != 101 { // AllocsPerRun's warm-up + 100
		t.Fatalf("%d moves over 101 ticks", got)
	}
}

// TestDaemonSimObs: with observability attached, moves and convergence are
// recorded in the registry and convergence tracker.
func TestDaemonSimObs(t *testing.T) {
	o := obs.New(obs.Options{TraceCapacity: 64})
	s := NewSim(SimConfig{N: 5, Seed: 3, Obs: o})
	s.CorruptAll()
	moves, ok := s.Converge(100 * 5 * 5 * 6)
	if !ok {
		t.Fatal("no convergence")
	}
	snap := o.Registry().Snapshot()
	if got := snap.Counters["tokenring_moves_total"]; got != int64(s.Moves()) {
		t.Fatalf("tokenring_moves_total = %d, want %d", got, s.Moves())
	}
	if moves != s.Moves() {
		t.Fatalf("Converge moves %d != Moves() %d", moves, s.Moves())
	}
	if o.Convergence().FirstProgressAfterFault() < 0 {
		t.Fatal("convergence tracker should record progress after the fault")
	}
}
