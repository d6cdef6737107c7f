package lspec

import (
	goruntime "runtime"
	"testing"
	"unsafe"

	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/sim"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

// TestViolationRendering renders one record of every clause and holds
// Error() to the report the clause has always made, character for
// character: a check that reports differently is a different checker.
func TestViolationRendering(t *testing.T) {
	a, b := ltime.Timestamp{Clock: 12, PID: 3}, ltime.Timestamp{Clock: 10, PID: 2}
	for _, tc := range []struct {
		r    record
		want string
	}{
		{record{index: 4, clause: clStructural},
			"invariant violated at trace index 4: structural: p does not hold"},
		{record{index: 4, clause: clME1},
			"invariant violated at trace index 4: ME1: p does not hold"},
		{record{index: 4, clause: clI},
			"invariant violated at trace index 4: invariant-I: p does not hold"},
		{record{index: 3, clause: clTimestamp, j: 3, from: a, to: b},
			"timestamp violated at trace index 3: timestamp.3: ts regressed from 12.3 to 10.2"},
		{record{index: 3, clause: clFlow, j: 1, from: ltime.Timestamp{Clock: uint64(tme.Thinking)}},
			"unless violated at trace index 3: flow.t.1: p ∧ ¬q held but next state satisfies ¬p ∧ ¬q"},
		{record{index: 3, clause: clFlow, j: 0, from: ltime.Timestamp{Clock: uint64(tme.Hungry)}},
			"unless violated at trace index 3: flow.h.0: p ∧ ¬q held but next state satisfies ¬p ∧ ¬q"},
		{record{index: 3, clause: clFlow, j: 2, from: ltime.Timestamp{Clock: uint64(tme.Eating)}},
			"unless violated at trace index 3: flow.e.2: p ∧ ¬q held but next state satisfies ¬p ∧ ¬q"},
		{record{index: 3, clause: clRequest, j: 4, from: b, to: a},
			"request violated at trace index 3: request.req-stable.4: REQ changed from 10.2 to 12.3 while hungry"},
		{record{index: 4, clause: clRelease, j: 2},
			"invariant violated at trace index 4: release.req-tracks-ts.2: p does not hold"},
		{record{index: 9, clause: clME3, k: 1, j: 2, from: b, to: a},
			"ME3 violated at trace index 9: process 1 entered knowing 2's earlier request 10.2 < 12.3"},
	} {
		if got := tc.r.violation().Error(); got != tc.want {
			t.Errorf("clause %d renders\n  %q\nwant\n  %q", tc.r.clause, got, tc.want)
		}
	}
}

// TestRecordIsCompact holds a violation record to 56 bytes: a run keeps
// one per violation, and fault bursts make thousands.
func TestRecordIsCompact(t *testing.T) {
	if size := unsafe.Sizeof(record{}); size > 56 {
		t.Errorf("a violation record is %d bytes, want at most 56", size)
	}
}

// everyClause returns two 4-process states that, observed alternately,
// break every safety clause and ME3 on every round:
//
//   - process 0 is hungry in both with a different REQ (Request Spec), and
//     its clock falls from a to b (Timestamp Spec);
//   - process 1 goes hungry → thinking from a to b (Flow Spec) and is
//     thinking in b with REQ ≠ ts (CS Release Spec);
//   - process 2 has an invalid phase in a (Structural Spec) and enters its
//     critical section in b knowing process 0's earlier request (ME3), so b
//     has two eaters (ME1);
//   - process 3 holds a copy of REQ_1 ahead of REQ_1 (invariant I).
func everyClause() (a, b sim.GlobalState) {
	ts := func(c uint64, pid int) ltime.Timestamp { return ltime.Timestamp{Clock: c, PID: pid} }
	state := func(t int64, phases [4]tme.Phase, req0, ts0, req1 ltime.Timestamp) sim.GlobalState {
		g := sim.GlobalState{Time: t, Nodes: make([]tme.SpecState, 4)}
		reqs := [4]ltime.Timestamp{req0, req1, ts(9, 2), ts(1, 3)}
		for i := range g.Nodes {
			g.Nodes[i] = tme.SpecState{ID: i, Phase: phases[i], REQ: reqs[i], TS: reqs[i], HasTS: true,
				Local: make([]ltime.Timestamp, 4), Received: make([]bool, 4)}
		}
		g.Nodes[0].TS = ts0
		g.Nodes[1].TS = ts(8, 1)
		g.Nodes[2].Local[0] = req0
		g.Nodes[3].Local[1] = ts(100, 1)
		return g
	}
	a = state(1, [4]tme.Phase{tme.Hungry, tme.Hungry, 0, tme.Eating}, ts(1, 0), ts(10, 0), ts(8, 1))
	b = state(2, [4]tme.Phase{tme.Hungry, tme.Thinking, tme.Eating, tme.Eating}, ts(2, 0), ts(5, 0), ts(7, 1))
	return a, b
}

// TestViolatingObservationAllocatesNothing observes states that break every
// safety clause and ME3, over and over, on instrumented monitors. After a
// warm-up that registers every per-operator counter, recording violations
// allocates nothing but the fixed record blocks, one per chunkRecords
// records: no observation allocates on its own behalf.
func TestViolatingObservationAllocatesNothing(t *testing.T) {
	a, b := everyClause()
	m := New(4)
	m.Instrument(obs.New(obs.Options{TraceCapacity: 64}))
	round := func() {
		m.Observe(a)
		m.Observe(b)
	}
	round()
	round() // every clause has been reported, every counter registered
	var broken [clME3 + 1]int
	count := func(r *record) { broken[r.clause]++ }
	m.violations.each(count)
	m.fcfs.each(count)
	for c, n := range broken {
		if n == 0 {
			t.Fatalf("the warm-up broke no clause %d: %v %v", c, m.Violations(), m.FCFSViolations())
		}
	}
	blocks := func() int {
		return (m.violations.n+chunkRecords-1)/chunkRecords + (m.fcfs.n+chunkRecords-1)/chunkRecords
	}
	const rounds = 200
	before, recs := blocks(), m.violations.n+m.fcfs.n
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	for i := 0; i < rounds; i++ {
		round()
	}
	goruntime.ReadMemStats(&ms1)
	recs = m.violations.n + m.fcfs.n - recs
	if recs < rounds*len(broken) {
		t.Fatalf("%d violations over %d rounds: the states do not break every clause every round", recs, rounds)
	}
	opened := blocks() - before
	if allocs := int(ms1.Mallocs - ms0.Mallocs); allocs != opened {
		t.Errorf("%d observations recording %d violations allocated %d times, want %d (one per record block)",
			2*rounds, recs, allocs, opened)
	}
}
