package ring

import (
	"fmt"

	"github.com/graybox-stabilization/graybox/internal/spec"
)

// Snapshot is one observed global state of the ring, consumed by monitors.
type Snapshot struct {
	// Time is the tick of the observation.
	Time int64
	// Live is the live-token count (see Sim.LiveTokens).
	Live int
	// Holder is the unique holder id, or -1 (none, or several).
	Holder int
	// Seqs[i] is process i's seq_i.
	Seqs []uint64
}

// Snap captures the current snapshot.
func (s *Sim) Snap() Snapshot {
	snap := Snapshot{
		Time:   s.Now(),
		Live:   s.LiveTokens(),
		Holder: s.Holder(),
		Seqs:   make([]uint64, s.cfg.N),
	}
	for i, nd := range s.nodes {
		snap.Seqs[i] = nd.Seq()
	}
	return snap
}

// SetObserver installs a per-tick observer (nil to remove).
func (s *Sim) SetObserver(o func(*Sim)) { s.observer = o }

// Monitors checks a ring run against TCspec's global consequences: exactly
// one live token (the ME1 analogue), monotone sequence numbers (Monotone
// Spec), and per-process circulation (each process holds the token again —
// the liveness the regenerator must restore).
type Monitors struct {
	n     int
	suite *spec.Suite[Snapshot]
	// lastHeld[i] is the last tick process i was observed holding (-1:
	// never). Circulation is a perpetual liveness property, so starvation
	// is judged by recency rather than by open obligations (which any
	// finite horizon leaves mid-lap).
	lastHeld   []int64
	lastTime   int64
	violations []int64 // times of safety violations
	lastViol   int64
}

// NewMonitors returns monitors for an n-process ring.
func NewMonitors(n int) *Monitors {
	m := &Monitors{
		n:        n,
		suite:    spec.NewSuite[Snapshot](),
		lastHeld: make([]int64, n),
		lastViol: -1,
	}
	for i := range m.lastHeld {
		m.lastHeld[i] = -1
	}

	// Exactly one live token, checked per state (non-latching): the
	// convergence measure is the last time this fails.
	m.suite.Add(spec.NewInvariant("single-live-token", func(s Snapshot) bool {
		return s.Live == 1
	}))

	// Monotone Spec: seq_i never decreases.
	for i := 0; i < n; i++ {
		i := i
		m.suite.Add(&monotoneSeq{name: fmt.Sprintf("seq.%d", i), i: i})
	}
	return m
}

// Observe feeds one snapshot.
func (m *Monitors) Observe(s Snapshot) {
	m.lastTime = s.Time
	if s.Holder >= 0 && s.Holder < m.n {
		m.lastHeld[s.Holder] = s.Time
	}
	before := len(m.suite.Violations())
	m.suite.Observe(s)
	for range m.suite.Violations()[before:] {
		m.violations = append(m.violations, s.Time)
		if s.Time > m.lastViol {
			m.lastViol = s.Time
		}
	}
}

// AsObserver adapts the monitors to a Sim observer.
func (m *Monitors) AsObserver() func(*Sim) {
	return func(s *Sim) { m.Observe(s.Snap()) }
}

// LastViolationTime returns the last safety-violation tick, or -1.
func (m *Monitors) LastViolationTime() int64 { return m.lastViol }

// Violations returns the number of safety violations observed.
func (m *Monitors) Violations() int { return len(m.violations) }

// StarvedProcesses returns ids that have not held the token within the
// final window ticks of the observed run — the circulation-liveness
// verdict for a perpetual system. Pick window comfortably above one ring
// lap (n hops × max delay × hold time).
func (m *Monitors) StarvedProcesses(window int64) []int {
	var out []int
	for i, last := range m.lastHeld {
		if last < m.lastTime-window {
			out = append(out, i)
		}
	}
	return out
}

// LastHeld returns the last tick process i was observed holding, or -1.
func (m *Monitors) LastHeld(i int) int64 { return m.lastHeld[i] }

// monotoneSeq checks that seq_i never decreases across snapshots.
type monotoneSeq struct {
	name string
	i    int
	have bool
	last uint64
}

func (ms *monotoneSeq) Name() string { return ms.name }
func (ms *monotoneSeq) Pending() int { return 0 }

func (ms *monotoneSeq) Observe(s Snapshot) *spec.Violation {
	cur := s.Seqs[ms.i]
	defer func() { ms.last, ms.have = cur, true }()
	if ms.have && cur < ms.last {
		return &spec.Violation{Op: "monotone-seq", Detail: fmt.Sprintf(
			"%s: seq regressed %d → %d", ms.name, ms.last, cur)}
	}
	return nil
}

var _ spec.Monitor[Snapshot] = (*monotoneSeq)(nil)
