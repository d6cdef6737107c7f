package lspec

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/sim"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

// mkState builds a 2-process snapshot with the given per-process phases,
// REQs and clocks.
func mkState(t int64, phases [2]tme.Phase, reqs [2]ltime.Timestamp, ts [2]ltime.Timestamp) sim.GlobalState {
	g := sim.GlobalState{Time: t, Nodes: make([]tme.SpecState, 2)}
	for i := range g.Nodes {
		g.Nodes[i] = tme.SpecState{
			ID:       i,
			Phase:    phases[i],
			REQ:      reqs[i],
			Local:    make([]ltime.Timestamp, 2),
			Received: make([]bool, 2),
			TS:       ts[i],
			HasTS:    true,
		}
	}
	return g
}

func reqAt(c uint64, pid int) ltime.Timestamp { return ltime.Timestamp{Clock: c, PID: pid} }

func countOp(vs []TimedViolation, op string) int {
	n := 0
	for _, v := range vs {
		if v.V.Op == op {
			n++
		}
	}
	return n
}

func TestFlowSpecMonitorCatchesIllegalTransition(t *testing.T) {
	m := New(2)
	// Process 0: hungry → thinking directly (h unless e violated).
	thinking := mkState(0,
		[2]tme.Phase{tme.Hungry, tme.Thinking},
		[2]ltime.Timestamp{reqAt(1, 0), reqAt(0, 1)},
		[2]ltime.Timestamp{reqAt(1, 0), reqAt(0, 1)})
	m.Observe(thinking)
	after := mkState(1,
		[2]tme.Phase{tme.Thinking, tme.Thinking},
		[2]ltime.Timestamp{reqAt(1, 0), reqAt(0, 1)},
		[2]ltime.Timestamp{reqAt(1, 0), reqAt(0, 1)})
	m.Observe(after)
	if countOp(m.Violations(), "unless") == 0 {
		t.Errorf("flow violation not caught: %v", m.Violations())
	}
}

func TestRequestSpecMonitorCatchesREQChangeWhileHungry(t *testing.T) {
	m := New(2)
	s1 := mkState(0,
		[2]tme.Phase{tme.Hungry, tme.Thinking},
		[2]ltime.Timestamp{reqAt(1, 0), reqAt(0, 1)},
		[2]ltime.Timestamp{reqAt(1, 0), reqAt(0, 1)})
	m.Observe(s1)
	s2 := mkState(1,
		[2]tme.Phase{tme.Hungry, tme.Thinking},
		[2]ltime.Timestamp{reqAt(9, 0), reqAt(0, 1)}, // REQ changed while hungry
		[2]ltime.Timestamp{reqAt(9, 0), reqAt(0, 1)})
	m.Observe(s2)
	if countOp(m.Violations(), "request") == 0 {
		t.Errorf("request violation not caught: %v", m.Violations())
	}
}

func TestTimestampSpecMonitorCatchesClockRegression(t *testing.T) {
	m := New(2)
	s1 := mkState(0,
		[2]tme.Phase{tme.Thinking, tme.Thinking},
		[2]ltime.Timestamp{reqAt(5, 0), reqAt(0, 1)},
		[2]ltime.Timestamp{reqAt(5, 0), reqAt(0, 1)})
	m.Observe(s1)
	s2 := mkState(1,
		[2]tme.Phase{tme.Thinking, tme.Thinking},
		[2]ltime.Timestamp{reqAt(2, 0), reqAt(0, 1)},
		[2]ltime.Timestamp{reqAt(2, 0), reqAt(0, 1)}) // clock went backwards
	m.Observe(s2)
	if countOp(m.Violations(), "timestamp") == 0 {
		t.Errorf("timestamp regression not caught: %v", m.Violations())
	}
}

// TestTimestampAndRequestViolationsReportTheirIndex: a ts regression and a
// REQ change while hungry, both on observation 3, are reported at index 2,
// the state whose successor broke the clause (as unless reports), by the
// check and by the oracle alike.
func TestTimestampAndRequestViolationsReportTheirIndex(t *testing.T) {
	steady := mkState(0,
		[2]tme.Phase{tme.Thinking, tme.Hungry},
		[2]ltime.Timestamp{reqAt(5, 0), reqAt(3, 1)},
		[2]ltime.Timestamp{reqAt(5, 0), reqAt(4, 1)})
	broken := mkState(3,
		[2]tme.Phase{tme.Thinking, tme.Hungry},
		[2]ltime.Timestamp{reqAt(2, 0), reqAt(7, 1)}, // 1's REQ moved while hungry
		[2]ltime.Timestamp{reqAt(2, 0), reqAt(4, 1)}) // 0's clock went backwards
	m, o := New(2), newOracle(2)
	for _, g := range []sim.GlobalState{steady, steady, steady, broken} {
		m.Observe(g)
		o.Observe(g)
	}
	for name, vs := range map[string][]TimedViolation{"Monitors": m.Violations(), "oracle": o.violations} {
		if len(vs) != 2 || vs[0].V.Op != "timestamp" || vs[1].V.Op != "request" {
			t.Fatalf("%s: violations %v, want a timestamp and a request violation", name, vs)
		}
		for _, v := range vs {
			if v.V.Index != 2 {
				t.Errorf("%s: %v reported at index %d, want 2", name, v, v.V.Index)
			}
		}
	}
}

func TestCSReleaseSpecMonitorCatchesStaleREQWhileThinking(t *testing.T) {
	m := New(2)
	g := mkState(0,
		[2]tme.Phase{tme.Thinking, tme.Thinking},
		[2]ltime.Timestamp{reqAt(1, 0), reqAt(0, 1)}, // REQ ≠ ts for process 0
		[2]ltime.Timestamp{reqAt(4, 0), reqAt(0, 1)})
	m.Observe(g)
	if countOp(m.Violations(), "invariant") == 0 {
		t.Errorf("CS Release violation not caught: %v", m.Violations())
	}
}

func TestStructuralSpecMonitorCatchesInvalidPhase(t *testing.T) {
	m := New(2)
	g := mkState(0,
		[2]tme.Phase{tme.Phase(7), tme.Thinking},
		[2]ltime.Timestamp{reqAt(0, 0), reqAt(0, 1)},
		[2]ltime.Timestamp{reqAt(0, 0), reqAt(0, 1)})
	m.Observe(g)
	if len(m.Violations()) == 0 {
		t.Error("invalid phase not caught")
	}
}

func TestCleanSequencePassesAllMonitors(t *testing.T) {
	m := New(2)
	// A legal little history: both thinking, 0 goes hungry, eats, thinks.
	states := []sim.GlobalState{
		mkState(0, [2]tme.Phase{tme.Thinking, tme.Thinking},
			[2]ltime.Timestamp{reqAt(0, 0), reqAt(0, 1)},
			[2]ltime.Timestamp{reqAt(0, 0), reqAt(0, 1)}),
		mkState(1, [2]tme.Phase{tme.Hungry, tme.Thinking},
			[2]ltime.Timestamp{reqAt(1, 0), reqAt(0, 1)},
			[2]ltime.Timestamp{reqAt(1, 0), reqAt(0, 1)}),
		mkState(2, [2]tme.Phase{tme.Eating, tme.Thinking},
			[2]ltime.Timestamp{reqAt(1, 0), reqAt(0, 1)},
			[2]ltime.Timestamp{reqAt(1, 0), reqAt(0, 1)}),
		mkState(3, [2]tme.Phase{tme.Thinking, tme.Thinking},
			[2]ltime.Timestamp{reqAt(2, 0), reqAt(0, 1)},
			[2]ltime.Timestamp{reqAt(2, 0), reqAt(0, 1)}),
	}
	for _, g := range states {
		m.Observe(g)
	}
	if len(m.Violations()) != 0 {
		t.Errorf("clean sequence flagged: %v", m.Violations())
	}
	if !m.Clean() {
		t.Errorf("Clean() = false: starved=%v stuck=%v open=%d",
			m.StarvedProcesses(), m.StuckEaters(), m.OpenReplyObligations())
	}
}

func TestReplyObligationAccounting(t *testing.T) {
	m := New(2)
	// Process 0 hungry with a pending EARLIER request from 1 that never
	// gets discharged.
	g := mkState(0,
		[2]tme.Phase{tme.Hungry, tme.Hungry},
		[2]ltime.Timestamp{reqAt(5, 0), reqAt(1, 1)},
		[2]ltime.Timestamp{reqAt(5, 0), reqAt(1, 1)})
	g.Nodes[0].Local[1] = reqAt(1, 1)
	g.Nodes[0].Received[1] = true
	m.Observe(g)
	if m.OpenReplyObligations() != 1 {
		t.Errorf("OpenReplyObligations = %d, want 1", m.OpenReplyObligations())
	}
	// Discharge it.
	g2 := mkState(1,
		[2]tme.Phase{tme.Hungry, tme.Hungry},
		[2]ltime.Timestamp{reqAt(5, 0), reqAt(1, 1)},
		[2]ltime.Timestamp{reqAt(5, 0), reqAt(1, 1)})
	m.Observe(g2)
	if m.OpenReplyObligations() != 0 {
		t.Errorf("after discharge: OpenReplyObligations = %d", m.OpenReplyObligations())
	}
}
