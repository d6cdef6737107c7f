package ring

import "testing"

// monitor checks a ring run tick by tick against TCspec's global
// consequences: exactly one live token (the ME1 analogue), and per-process
// circulation judged by recency (each process holds the token again; any
// finite horizon leaves a lap unfinished, so open obligations would not do).
type monitor struct {
	lastHeld   []int64 // last tick process i was seen holding, -1: never
	lastTime   int64
	violations int   // ticks without exactly one live token
	lastViol   int64 // the last of them, -1: none
}

func newMonitor(n int) *monitor {
	m := &monitor{lastHeld: make([]int64, n), lastViol: -1}
	for i := range m.lastHeld {
		m.lastHeld[i] = -1
	}
	return m
}

// run advances s by ticks ticks, observing the state after each.
func (m *monitor) run(s *Sim, ticks int64) {
	for ; ticks > 0; ticks-- {
		s.Tick()
		m.lastTime = s.Now()
		if h := s.Holder(); h >= 0 {
			m.lastHeld[h] = m.lastTime
		}
		if s.LiveTokens() != 1 {
			m.violations++
			m.lastViol = m.lastTime
		}
	}
}

// starved returns the processes that have not held the token within the
// final window ticks. Pick window above one ring lap.
func (m *monitor) starved(window int64) []int {
	var out []int
	for i, last := range m.lastHeld {
		if last < m.lastTime-window {
			out = append(out, i)
		}
	}
	return out
}

func TestMonitorsCleanFaultFreeRun(t *testing.T) {
	s := NewSim(SimConfig{N: 4, Seed: 1, NewNode: eagerFactory(2)})
	m := newMonitor(4)
	m.run(s, 400)
	if m.violations != 0 || m.lastViol != -1 {
		t.Errorf("fault-free run has %d violations, the last at %d", m.violations, m.lastViol)
	}
	if got := m.starved(60); len(got) != 0 {
		t.Errorf("starved = %v", got)
	}
}

func TestMonitorsDetectTokenLossAndRecovery(t *testing.T) {
	s := NewSim(SimConfig{N: 4, Seed: 2, NewNode: eagerFactory(2), WrapperDelta: 20})
	m := newMonitor(4)
	m.run(s, 50)
	s.DropAllInFlight()
	s.StealToken()
	m.run(s, 600)
	if m.violations == 0 {
		t.Fatal("token loss produced no single-live-token violations")
	}
	if m.lastViol < 50 || m.lastViol > 120 {
		t.Errorf("last violation at %d, want shortly after the fault", m.lastViol)
	}
	if got := m.starved(60); len(got) != 0 {
		t.Errorf("starvation after recovery: %v (lastHeld %v)", got, m.lastHeld)
	}
}

func TestMonitorsDetectStarvationWithoutWrapper(t *testing.T) {
	s := NewSim(SimConfig{N: 4, Seed: 3, NewNode: eagerFactory(2)})
	m := newMonitor(4)
	m.run(s, 50)
	s.DropAllInFlight()
	s.StealToken()
	m.run(s, 400)
	if got := m.starved(60); len(got) != 4 {
		t.Errorf("starved = %v, want all four", got)
	}
}
