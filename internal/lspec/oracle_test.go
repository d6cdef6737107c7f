package lspec

import (
	"fmt"
	"slices"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/fault"
	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/seeded"
	"github.com/graybox-stabilization/graybox/internal/sim"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// oracle is Lspec and TME_Spec as the paper states them, one temporal
// operator per clause (temporal_test.go), judged in a plain suite on every
// observation. Monitors must report exactly what it reports.
type oracle struct {
	suite suite[sim.GlobalState]
	// me2, csTransient and replyPending are the liveness clauses, whose
	// open obligations are read at the end of a run.
	me2, csTransient, replyPending []*leadsToMonitor[sim.GlobalState]

	violations, fcfs []TimedViolation
	prevPhases       []tme.Phase
	obs              int
}

// newOracle registers the clauses for an n-process system; their order is
// the order violations of one observation are reported in.
func newOracle(n int) *oracle {
	o := &oracle{}

	// Structural Spec: every phase is exactly one of {t,h,e}.
	o.suite.add(newInvariant("structural", func(g sim.GlobalState) bool {
		for _, s := range g.Nodes {
			if !s.Phase.Valid() {
				return false
			}
		}
		return true
	}))
	// ME1 (TME_Spec): at most one process eats.
	o.suite.add(newInvariant("ME1", func(g sim.GlobalState) bool { return g.NumEating() <= 1 }))
	// Invariant I of Theorem A.1: local copies never lead the truth.
	o.suite.add(newInvariant("invariant-I", InvariantI))

	// Timestamp Spec: ts.j never decreases.
	for j := 0; j < n; j++ {
		o.suite.add(&monotoneTS{name: fmt.Sprintf("timestamp.%d", j), j: j})
	}
	// Flow Spec: t unless h, h unless e, e unless t.
	for j := 0; j < n; j++ {
		j := j
		phaseIs := func(p tme.Phase) predicate[sim.GlobalState] {
			return func(g sim.GlobalState) bool { return g.Nodes[j].Phase == p }
		}
		o.suite.add(newUnless(fmt.Sprintf("flow.t.%d", j), phaseIs(tme.Thinking), phaseIs(tme.Hungry)))
		o.suite.add(newUnless(fmt.Sprintf("flow.h.%d", j), phaseIs(tme.Hungry), phaseIs(tme.Eating)))
		o.suite.add(newUnless(fmt.Sprintf("flow.e.%d", j), phaseIs(tme.Eating), phaseIs(tme.Thinking)))
	}
	// Request Spec (safety half): while hungry, REQ_j is unchanged.
	for j := 0; j < n; j++ {
		o.suite.add(&stableREQ{name: fmt.Sprintf("request.req-stable.%d", j), j: j})
	}
	// CS Release Spec: while thinking, REQ_j equals ts.j.
	for j := 0; j < n; j++ {
		j := j
		o.suite.add(newInvariant(fmt.Sprintf("release.req-tracks-ts.%d", j), func(g sim.GlobalState) bool {
			s := &g.Nodes[j]
			return s.Phase != tme.Thinking || !s.HasTS || s.REQ == s.TS
		}))
	}
	// CS Spec (liveness): e.j ↦ ¬e.j.
	for j := 0; j < n; j++ {
		j := j
		lt := newLeadsToNot(fmt.Sprintf("cs-transient.%d", j),
			func(g sim.GlobalState) bool { return g.Nodes[j].Phase == tme.Eating })
		o.csTransient = append(o.csTransient, lt)
		o.suite.add(lt)
	}
	// ME2 (liveness): h.j ↦ e.j.
	for j := 0; j < n; j++ {
		j := j
		lt := newLeadsTo(fmt.Sprintf("ME2.%d", j),
			func(g sim.GlobalState) bool { return g.Nodes[j].Phase == tme.Hungry },
			func(g sim.GlobalState) bool { return g.Nodes[j].Phase == tme.Eating })
		o.me2 = append(o.me2, lt)
		o.suite.add(lt)
	}
	// Reply Spec (liveness): received(j.REQ_k) ∧ j.REQ_k lt REQ_j — a
	// pending request earlier than ours — is eventually discharged.
	for j := 0; j < n; j++ {
		for k := 0; k < n; k++ {
			if j == k {
				continue
			}
			j, k := j, k
			lt := newLeadsToNot(fmt.Sprintf("reply.%d.%d", j, k), func(g sim.GlobalState) bool {
				s := &g.Nodes[j]
				return s.Received[k] && s.Local[k].Less(s.REQ)
			})
			o.replyPending = append(o.replyPending, lt)
			o.suite.add(lt)
		}
	}
	return o
}

// Observe judges every clause, and the FCFS detector, on g.
func (o *oracle) Observe(g sim.GlobalState) {
	before := len(o.suite.violations)
	o.suite.observe(g)
	for _, v := range o.suite.violations[before:] {
		o.violations = append(o.violations, TimedViolation{Time: g.Time, V: v})
	}
	if o.prevPhases != nil {
		for k := range g.Nodes {
			if g.Nodes[k].Phase != tme.Eating || o.prevPhases[k] == tme.Eating {
				continue
			}
			for j := range g.Nodes {
				reqJ := g.Nodes[j].REQ
				if j != k && g.Nodes[j].Phase == tme.Hungry && g.Nodes[k].Local[j] == reqJ && reqJ.Less(g.Nodes[k].REQ) {
					o.fcfs = append(o.fcfs, TimedViolation{Time: g.Time, V: &Violation{
						Op: "ME3", Index: o.obs,
						Detail: fmt.Sprintf("process %d entered knowing %d's earlier request %s < %s",
							k, j, reqJ, g.Nodes[k].REQ),
					}})
				}
			}
		}
	}
	o.prevPhases = o.prevPhases[:0]
	for _, s := range g.Nodes {
		o.prevPhases = append(o.prevPhases, s.Phase)
	}
	o.obs++
}

// asObserver observes a simulation on Monitors' cadence, rebuilding every
// snapshot.
func (o *oracle) asObserver() sim.Observer {
	c := cadence{activity: -1, time: -1}
	var g sim.GlobalState
	return func(s *sim.Sim) {
		if c.due(s) {
			s.SnapshotInto(&g)
			o.Observe(g)
		}
	}
}

// open lists the ids of the liveness monitors with an open obligation.
func open(lts []*leadsToMonitor[sim.GlobalState]) []int {
	var out []int
	for j, lt := range lts {
		if lt.Pending() > 0 {
			out = append(out, j)
		}
	}
	return out
}

func (o *oracle) starved() []int   { return open(o.me2) }
func (o *oracle) stuck() []int     { return open(o.csTransient) }
func (o *oracle) openReplies() int { return len(open(o.replyPending)) }
func (o *oracle) clean() bool {
	return len(o.violations) == 0 && len(o.fcfs) == 0 &&
		len(o.starved()) == 0 && len(o.stuck()) == 0 && o.openReplies() == 0
}

// monotoneTS checks Timestamp Spec: ts.j never decreases across snapshots.
type monotoneTS struct {
	name      string
	j, idx    int
	lastTS    ltime.Timestamp
	lastHasTS bool
}

func (mt *monotoneTS) Observe(g sim.GlobalState) *Violation {
	cur := &g.Nodes[mt.j]
	idx, prevTS, prevHas := mt.idx, mt.lastTS, mt.lastHasTS
	mt.idx++
	mt.lastTS, mt.lastHasTS = cur.TS, cur.HasTS
	if idx > 0 && prevHas && cur.HasTS && cur.TS.Less(prevTS) {
		return &Violation{Op: "timestamp", Index: idx - 1, Detail: fmt.Sprintf(
			"%s: ts regressed from %s to %s", mt.name, prevTS, cur.TS)}
	}
	return nil
}

// stableREQ checks the safety half of Request Spec: while a process stays
// hungry, REQ_j does not change.
type stableREQ struct {
	name      string
	j, idx    int
	lastPhase tme.Phase
	lastREQ   ltime.Timestamp
}

func (sr *stableREQ) Observe(g sim.GlobalState) *Violation {
	cur := &g.Nodes[sr.j]
	idx, prevPhase, prevREQ := sr.idx, sr.lastPhase, sr.lastREQ
	sr.idx++
	sr.lastPhase, sr.lastREQ = cur.Phase, cur.REQ
	if idx > 0 && prevPhase == tme.Hungry && cur.Phase == tme.Hungry && prevREQ != cur.REQ {
		return &Violation{Op: "request", Index: idx - 1, Detail: fmt.Sprintf(
			"%s: REQ changed from %s to %s while hungry", sr.name, prevREQ, cur.REQ)}
	}
	return nil
}

// twin holds a Monitors and an oracle fed the same observations.
type twin struct {
	m *Monitors
	o *oracle
	// seen and seenFCFS count the violations already compared.
	seen, seenFCFS int
}

// agree fails t unless everything a caller can read off the two is equal.
func (tw *twin) agree(t testing.TB, where string) {
	t.Helper()
	sameStream := func(what string, got, want []TimedViolation, from int) int {
		if len(got) != len(want) {
			t.Fatalf("%s: %d %s violations, oracle %d\ngot  %v\nwant %v", where, len(got), what, len(want), got[from:], want[from:])
		}
		for i := from; i < len(got); i++ {
			if got[i].Time != want[i].Time || *got[i].V != *want[i].V {
				t.Fatalf("%s: %s violation %d = %v, oracle %v", where, what, i, got[i], want[i])
			}
		}
		return len(got)
	}
	tw.seen = sameStream("safety", tw.m.Violations(), tw.o.violations, tw.seen)
	tw.seenFCFS = sameStream("FCFS", tw.m.FCFSViolations(), tw.o.fcfs, tw.seenFCFS)
	if got, want := tw.m.StarvedProcesses(), tw.o.starved(); !slices.Equal(got, want) {
		t.Fatalf("%s: StarvedProcesses = %v, oracle %v", where, got, want)
	}
	if got, want := tw.m.StuckEaters(), tw.o.stuck(); !slices.Equal(got, want) {
		t.Fatalf("%s: StuckEaters = %v, oracle %v", where, got, want)
	}
	if got, want := tw.m.OpenReplyObligations(), tw.o.openReplies(); got != want {
		t.Fatalf("%s: OpenReplyObligations = %d, oracle %d", where, got, want)
	}
	if got, want := tw.m.Clean(), tw.o.clean(); got != want {
		t.Fatalf("%s: Clean = %v, oracle %v", where, got, want)
	}
}

// simCase is one monitored simulation: the sim's configuration plus the
// faults scheduled into it.
type simCase struct {
	name      string
	cfg       sim.Config
	horizon   int64
	faultSeed int64
	faults    []int64
	perBurst  int
	mix       fault.Mix
	deadlock  bool
}

// wrapped returns a W' factory with timeout delta.
func wrapped(delta int64) func(int) wrapper.Level2 {
	return func(int) wrapper.Level2 { return wrapper.NewTimed(delta) }
}

// runTwin runs c with Monitors.AsObserver and the oracle observing the same
// Sim, comparing the two after every observation.
func runTwin(t *testing.T, c simCase) *twin {
	t.Helper()
	cfg := c.cfg
	cfg.Workload = true
	if c.deadlock {
		cfg.ThinkMin, cfg.ThinkMax = c.horizon+1, c.horizon+2
	}
	s := sim.New(cfg)
	tw := &twin{m: New(cfg.N), o: newOracle(cfg.N)}
	fused, ref := tw.m.AsObserver(), tw.o.asObserver()
	s.SetObserver(func(s *sim.Sim) {
		before := tw.o.obs
		fused(s)
		ref(s)
		if tw.o.obs != before {
			tw.agree(t, fmt.Sprintf("%s t=%d", c.name, s.Now()))
		}
	})
	if c.deadlock {
		s.At(10, func(s *sim.Sim) {
			for i := 0; i < s.N(); i++ {
				s.Request(i)
			}
		})
		s.At(11, func(s *sim.Sim) { fault.DropAllInFlight(s) })
	}
	if len(c.faults) > 0 {
		fault.NewInjector(c.faultSeed, c.mix).Schedule(s, c.faults, c.perBurst)
	}
	s.Run(c.horizon)
	return tw
}

// walk drives a Monitors and an oracle through steps random hand-built
// states of 2 to 6 processes, every choice drawn from d, and compares them
// after every step. Each step rewrites some processes (phases, valid or
// not; HasTS; REQ, TS, local copies and received flags) or none, marks them
// changed (sometimes marking others too), and feeds the state through
// Observe or through observe with that change set. Values are drawn from a
// few clocks so that equalities, regressions and earlier requests are all
// common.
func walk(t testing.TB, d interface{ Intn(int) int }, steps int) *twin {
	n := 2 + d.Intn(5)
	ts := func() ltime.Timestamp { return ltime.Timestamp{Clock: uint64(d.Intn(4)), PID: d.Intn(n)} }
	phases := []tme.Phase{tme.Thinking, tme.Hungry, tme.Eating, tme.Thinking, tme.Hungry, tme.Eating, 0, 7}
	g := sim.GlobalState{Nodes: make([]tme.SpecState, n)}
	for j := range g.Nodes {
		g.Nodes[j] = tme.SpecState{ID: j, Phase: tme.Thinking, HasTS: true,
			Local: make([]ltime.Timestamp, n), Received: make([]bool, n)}
	}
	tw := &twin{m: New(n), o: newOracle(n)}
	changed := make([]bool, n)
	for step := 0; step < steps; step++ {
		g.Time = int64(step)
		clear(changed)
		moves := 0 // a stutter
		switch d.Intn(6) {
		case 0:
		case 1, 2, 3:
			moves = 1
		default:
			moves = 2 + d.Intn(n)
		}
		for ; moves > 0; moves-- {
			j := d.Intn(n)
			s := &g.Nodes[j]
			changed[j] = true
			for edits := 1 + d.Intn(3); edits > 0; edits-- {
				switch d.Intn(7) {
				case 0, 1:
					s.Phase = phases[d.Intn(len(phases))]
				case 2:
					s.HasTS = !s.HasTS
				case 3:
					s.REQ = ts()
				case 4:
					s.TS = ts()
				case 5:
					s.Local[d.Intn(n)] = ts()
				default:
					k := d.Intn(n)
					s.Received[k] = !s.Received[k]
				}
			}
		}
		if d.Intn(4) == 0 {
			changed[d.Intn(n)] = true // over-marking is allowed
		}
		if d.Intn(4) == 0 {
			tw.m.Observe(g)
		} else {
			tw.m.observe(g, changed)
		}
		tw.o.Observe(g)
		tw.agree(t, fmt.Sprintf("n=%d step %d", n, step))
	}
	return tw
}

// TestMonitorsMatchOracle holds the fused check to the clauses as the paper
// states them, judged on every state: identical violation streams (time,
// operator, index, detail, order), FCFS stream, starved and stuck sets,
// open reply obligations and Clean, after every observation. (a) runs the
// monitor parity configurations and 200 seeded simulations, both observers
// on one Sim; (b) runs 200 seeded random walks over hand-built states.
func TestMonitorsMatchOracle(t *testing.T) {
	ops := map[string]int{}
	tally := func(tw *twin) {
		for _, v := range append(tw.m.Violations(), tw.m.FCFSViolations()...) {
			ops[v.V.Op]++
		}
	}
	t.Run("sim", func(t *testing.T) {
		cases := []simCase{
			{name: "E2-stabilization", cfg: sim.Config{N: 4, Seed: 3, NewNode: raFactory, MaxRequests: 40, NewWrapper: wrapped(5)},
				horizon: 40000, faultSeed: 1003, faults: []int64{200, 300, 400}, perBurst: 12, mix: fault.DefaultMix},
			{name: "E2-lamport", cfg: sim.Config{N: 4, Seed: 11, NewNode: lamportFactory, MaxRequests: 40, NewWrapper: wrapped(5)},
				horizon: 40000, faultSeed: 1011, faults: []int64{200, 300, 400}, perBurst: 12, mix: fault.DefaultMix},
			{name: "E2-unwrapped", cfg: sim.Config{N: 4, Seed: 7, NewNode: raFactory, MaxRequests: 40},
				horizon: 40000, faultSeed: 1007, faults: []int64{200, 300, 400}, perBurst: 12, mix: fault.DefaultMix},
			{name: "E4-deadlock", cfg: sim.Config{N: 4, Seed: 5, NewNode: raFactory, MaxRequests: 10, NewWrapper: wrapped(5)},
				horizon: 30000, deadlock: true},
		}
		rng := seeded.New(20010701)
		for i := 0; i < 200; i++ {
			c := simCase{
				name:      fmt.Sprintf("run %d", i),
				cfg:       sim.Config{N: 2 + rng.Intn(5), Seed: rng.Int63n(1 << 20), NewNode: []func(int, int) tme.Node{raFactory, lamportFactory}[i%2], MaxRequests: 6},
				horizon:   3000,
				faultSeed: rng.Int63n(1 << 20),
				faults:    []int64{50 + rng.Int63n(100), 200 + rng.Int63n(100)},
				perBurst:  2 + rng.Intn(8),
				mix:       fault.DefaultMix,
			}
			if delta := []int64{0, 5, 10, -1}[rng.Intn(4)]; delta >= 0 {
				c.cfg.NewWrapper = wrapped(delta)
			}
			if i%4 >= 2 {
				c.mix = fault.Mix{Loss: 1, Corrupt: 1, State: 6}
			}
			cases = append(cases, c)
		}
		for _, c := range cases {
			tally(runTwin(t, c))
		}
	})
	t.Run("walks", func(t *testing.T) {
		for seed := int64(1); seed <= 200; seed++ {
			tally(walk(t, seeded.New(seed), 200))
		}
	})
	for _, op := range []string{"invariant", "unless", "timestamp", "request", "ME3"} {
		if ops[op] == 0 {
			t.Errorf("no %s violation in the whole sweep: that clause was compared on nothing (%v)", op, ops)
		}
	}
}

// tape draws a walk's choices from fuzz bytes, and zeros once they run out.
type tape []byte

func (tp *tape) Intn(n int) int {
	if len(*tp) == 0 {
		return 0
	}
	b := (*tp)[0]
	*tp = (*tp)[1:]
	return int(b) % n
}

// FuzzMonitorsMatchOracle runs TestMonitorsMatchOracle's walk with every
// choice taken from the fuzz input.
func FuzzMonitorsMatchOracle(f *testing.F) {
	f.Add([]byte{3, 1, 0, 2, 3, 1, 1, 0, 4, 4, 2, 5, 6, 1, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		steps := min(len(data)/4+1, 200)
		tp := tape(data)
		walk(t, &tp, steps)
	})
}
