// Package lspec realizes the paper's two specifications as an executable
// check over simulation snapshots:
//
//   - Lspec (DSN 2001 §3.2) — the local everywhere specification for TME:
//     Structural, Flow, CS, Request, Reply, CS Entry, CS Release, Timestamp
//     and Communication Specs, plus the invariant I of Theorem A.1:
//
//     (I)  ∀ j,k, j≠k :  j.REQ_k = REQ_k  ∨  j.REQ_k lt REQ_k
//
//   - TME_Spec (§3.1) — ME1 mutual exclusion, ME2 starvation freedom, ME3
//     first-come first-serve.
//
// Each observation runs one step per process that moved, judging all of
// that process's clauses at once (see Monitors). Monitors are how
// stabilization is *measured*: during fault bursts they record violations
// with their virtual times; convergence time is the last violation time
// after the last fault (plus liveness obligations draining).
// Theorem 5 (Lspec ⇒ TME_Spec) becomes the testable statement that runs
// with no Lspec violations have no TME_Spec violations.
package lspec

import (
	"fmt"

	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/sim"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

// Violation describes where in the observed computation a clause failed.
type Violation struct {
	// Op names the operator that failed ("invariant", "unless",
	// "timestamp", "request", "ME3").
	Op string
	// Index is the observation the failure is reported at: for an
	// invariant the state judged; for a transition clause the state whose
	// successor broke it.
	Index int
	// Detail is a human-readable elaboration naming the clause.
	Detail string
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("%s violated at trace index %d: %s", v.Op, v.Index, v.Detail)
}

// TimedViolation is a spec violation stamped with virtual time.
type TimedViolation struct {
	Time int64
	V    *Violation
}

func (t TimedViolation) String() string {
	return fmt.Sprintf("t=%d %v", t.Time, t.V)
}

// Monitors checks a full simulation run against Lspec and TME_Spec.
// Construct with New, feed every snapshot to Observe (typically from a
// sim.Observer), and read the verdicts at the end.
//
// Lspec is a local specification and the check is as local as it is. One
// step per process judges every clause that reads process j alone against
// what j held when it was last judged, and runs only on observations in
// which j changed (or j's CS Release invariant is failing, since a failing
// invariant is reported again on every state). Structural Spec and ME1 are
// read from counts of invalid and eating processes that the steps keep, and
// invariant I re-checks only the pairs that read the one process that moved
// when it held before. The verdicts are exactly those of judging every
// clause on every state: the clauses written one temporal operator each
// are the test oracle this check is held to.
type Monitors struct {
	// procs[j] is what the check keeps of process j.
	procs []proc
	// stepped lists the processes the current observation judged, in
	// ascending order.
	stepped []int
	// everyone marks every process changed: what Observe, which is told
	// nothing about its snapshot, passes for the change set.
	everyone []bool
	// invalid, eating and releaseFailing count the processes whose last
	// judged state has an invalid phase, is eating, or breaks CS Release.
	invalid, eating, releaseFailing int
	// iHolds records that invariant I held at the last observation.
	iHolds bool

	violations []TimedViolation
	obs        int
	// fcfs counts knowing-overtake events (operational ME3 violations).
	fcfsViolations []TimedViolation

	// observability (nil fields when not instrumented): every verdict
	// becomes a first-class violation event with convergence bookkeeping.
	otel struct {
		bundle *obs.Obs
		total  *obs.Counter
		byOp   map[string]*obs.Counter
		trace  *obs.Trace
		conv   *obs.Convergence
	}
}

// The clauses a step can find broken, one bit each, in report order.
const (
	brokeTS      uint8 = 1 << iota // Timestamp Spec: ts.j never decreases
	brokeFlow                      // Flow Spec: t unless h, h unless e, e unless t
	brokeREQ                       // Request Spec: REQ_j is stable while hungry
	brokeRelease                   // CS Release Spec: thinking ⇒ REQ_j = ts.j
)

// proc is the record of one process j: its variables at the state it was
// last judged on, the liveness obligations open there, and what its last
// step found.
type proc struct {
	judged bool
	phase  tme.Phase
	req    ltime.Timestamp
	ts     ltime.Timestamp
	hasTS  bool
	// me2 is ME2's obligation h.j ↦ e.j: set on Hungry, cleared on
	// Eating. CS Spec's e.j ↦ ¬e.j is open iff phase is Eating.
	me2 bool
	// replies counts the Reply Spec obligations open at j: the k with
	// received(j.REQ_k) ∧ j.REQ_k lt REQ_j.
	replies int
	// broke holds the clauses the last step found broken, and entered
	// that it saw j enter its critical section; was, wasTS and wasREQ are
	// the values it replaced, for the reports.
	broke         uint8
	entered       bool
	was           tme.Phase
	wasTS, wasREQ ltime.Timestamp
}

// step judges process j's move to s against the state j was last judged on,
// then records s. It reads nothing but s, and returns the clauses broken.
// On an unchanged state it finds no transition broken and opens or
// discharges nothing new.
func (p *proc) step(j int, s *tme.SpecState) uint8 {
	p.broke, p.entered = 0, false
	if p.judged {
		if p.hasTS && s.HasTS && s.TS.Less(p.ts) {
			p.broke |= brokeTS
		}
		if !flowAllows(p.phase, s.Phase) {
			p.broke |= brokeFlow
		}
		if p.phase == tme.Hungry && s.Phase == tme.Hungry && s.REQ != p.req {
			p.broke |= brokeREQ
		}
		p.entered = p.phase != tme.Eating && s.Phase == tme.Eating
	}
	if s.Phase == tme.Thinking && s.HasTS && s.REQ != s.TS {
		p.broke |= brokeRelease
	}
	if s.Phase == tme.Hungry || s.Phase == tme.Eating {
		p.me2 = s.Phase == tme.Hungry // thinking or an invalid phase leaves it
	}
	p.replies = 0
	for k, r := range s.Received {
		if r && k != j && s.Local[k].Less(s.REQ) {
			p.replies++
		}
	}
	p.was, p.wasTS, p.wasREQ = p.phase, p.ts, p.req
	p.judged, p.phase, p.req, p.ts, p.hasTS = true, s.Phase, s.REQ, s.TS, s.HasTS
	return p.broke
}

// flowAllows reports whether Flow Spec (t unless h, h unless e, e unless t)
// lets a process go from phase a to phase b.
func flowAllows(a, b tme.Phase) bool {
	switch a {
	case tme.Thinking:
		return b == tme.Thinking || b == tme.Hungry
	case tme.Hungry:
		return b == tme.Hungry || b == tme.Eating
	case tme.Eating:
		return b == tme.Eating || b == tme.Thinking
	default:
		return true // no flow clause holds at an invalid phase
	}
}

// count adds d times p's last judged state to the running counts.
func (m *Monitors) count(p *proc, d int) {
	if !p.judged {
		return
	}
	if !p.phase.Valid() {
		m.invalid += d
	}
	if p.phase == tme.Eating {
		m.eating += d
	}
	if p.broke&brokeRelease != 0 {
		m.releaseFailing += d
	}
}

// Instrument publishes every violation verdict to o: a per-operator
// counter, the convergence tracker (so convergence time falls out of the
// snapshot), and an EvViolation trace event. A nil o is a no-op.
func (m *Monitors) Instrument(o *obs.Obs) {
	if o == nil {
		return
	}
	m.otel.bundle = o
	m.otel.total = o.Registry().Counter("spec_violations_total", "spec-monitor violations (Lspec + TME_Spec + ME3)")
	m.otel.byOp = make(map[string]*obs.Counter)
	m.otel.trace = o.Tracer()
	m.otel.conv = o.Convergence()
}

// record publishes one violation verdict.
func (m *Monitors) record(v TimedViolation) {
	if m.otel.bundle == nil {
		return
	}
	m.otel.total.Inc()
	c, ok := m.otel.byOp[v.V.Op]
	if !ok {
		c = m.otel.bundle.Registry().Counter("spec_violations_"+sanitize(v.V.Op)+"_total",
			"violations of the "+v.V.Op+" operator")
		m.otel.byOp[v.V.Op] = c
	}
	c.Inc()
	m.otel.conv.RecordViolation(v.Time)
	m.otel.trace.Emit(obs.Event{Time: v.Time, Kind: obs.EvViolation, A: -1, B: -1, Detail: v.V.Op})
}

// sanitize maps an operator name onto the metric-name alphabet.
func sanitize(s string) string {
	out := []byte(s)
	for i, b := range out {
		switch {
		case b >= 'a' && b <= 'z', b >= '0' && b <= '9', b == '_':
		case b >= 'A' && b <= 'Z':
			out[i] = b + ('a' - 'A')
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// New returns monitors for an n-process system.
func New(n int) *Monitors {
	m := &Monitors{procs: make([]proc, n), stepped: make([]int, 0, n), everyone: make([]bool, n), iHolds: true}
	for j := range m.everyone {
		m.everyone[j] = true
	}
	return m
}

// InvariantI is the paper's invariant I as a predicate over a snapshot:
// every local copy equals or precedes the copied process's current REQ.
func InvariantI(g sim.GlobalState) bool {
	for j := range g.Nodes {
		for k := range g.Nodes {
			if j == k {
				continue
			}
			local := g.Nodes[j].Local[k]
			if !local.LessEq(g.Nodes[k].REQ) {
				return false
			}
		}
	}
	return true
}

// invariantIAround is invariant I on the 2(n−1) pairs that read process j.
// On a state that differs from one where I held only at j, it is I.
func invariantIAround(g sim.GlobalState, j int) bool {
	nj := &g.Nodes[j]
	for k := range g.Nodes {
		if k != j && !(nj.Local[k].LessEq(g.Nodes[k].REQ) && g.Nodes[k].Local[j].LessEq(nj.REQ)) {
			return false
		}
	}
	return true
}

// Observe feeds the next snapshot to all monitors.
func (m *Monitors) Observe(g sim.GlobalState) { m.observe(g, m.everyone) }

// observe feeds the next snapshot, which differs from the previous one at
// most in the processes j with changed[j] set. The first observation judges
// every process whatever changed says.
func (m *Monitors) observe(g sim.GlobalState, changed []bool) {
	now := m.obs
	m.obs++
	if now == 0 {
		changed = m.everyone
	}
	moved, last := 0, 0
	for j, c := range changed {
		if c {
			moved, last = moved+1, j
		}
	}
	if moved == 0 && m.releaseFailing == 0 && m.invalid == 0 && m.eating <= 1 && m.iHolds {
		return
	}
	m.stepped = m.stepped[:0]
	var broke uint8
	for j := range m.procs {
		p := &m.procs[j]
		if !changed[j] && p.broke&brokeRelease == 0 {
			continue
		}
		m.count(p, -1)
		broke |= p.step(j, &g.Nodes[j])
		m.count(p, 1)
		m.stepped = append(m.stepped, j)
	}
	switch {
	case moved == 0:
	case moved == 1 && m.iHolds:
		m.iHolds = invariantIAround(g, last)
	default:
		m.iHolds = InvariantI(g)
	}
	m.report(g.Time, now, broke)
	if moved > 0 {
		m.checkFCFS(g, now)
	}
}

// report records the violations of observation now, in the order the
// clauses are listed in: Structural, ME1 and invariant I, then each
// per-process clause for every process in turn.
func (m *Monitors) report(t int64, now int, broke uint8) {
	if m.invalid > 0 {
		m.violate(t, "invariant", now, "structural: p does not hold")
	}
	if m.eating > 1 {
		m.violate(t, "invariant", now, "ME1: p does not hold")
	}
	if !m.iHolds {
		m.violate(t, "invariant", now, "invariant-I: p does not hold")
	}
	for clause := brokeTS; clause <= brokeRelease; clause <<= 1 {
		if broke&clause == 0 {
			continue
		}
		for _, j := range m.stepped {
			p := &m.procs[j]
			if p.broke&clause == 0 {
				continue
			}
			switch clause {
			case brokeTS:
				m.violate(t, "timestamp", now-1, fmt.Sprintf("timestamp.%d: ts regressed from %s to %s", j, p.wasTS, p.ts))
			case brokeFlow:
				m.violate(t, "unless", now-1, fmt.Sprintf("flow.%s.%d: p ∧ ¬q held but next state satisfies ¬p ∧ ¬q", p.was, j))
			case brokeREQ:
				m.violate(t, "request", now-1, fmt.Sprintf("request.req-stable.%d: REQ changed from %s to %s while hungry", j, p.wasREQ, p.req))
			case brokeRelease:
				m.violate(t, "invariant", now, fmt.Sprintf("release.req-tracks-ts.%d: p does not hold", j))
			}
		}
	}
}

// violate records one safety violation at trace index i: the state judged
// for an invariant, the state whose successor broke a transition clause.
func (m *Monitors) violate(t int64, op string, i int, detail string) {
	tv := TimedViolation{Time: t, V: &Violation{Op: op, Index: i, Detail: detail}}
	m.violations = append(m.violations, tv)
	m.record(tv)
}

// checkFCFS flags a "knowing overtake": process k transitions into eating
// while some hungry j holds an earlier request that k has recorded exactly
// (k.REQ_j = REQ_j). Recording j's request implies it causally preceded k's
// entry, so this is an operational ME3 violation.
func (m *Monitors) checkFCFS(g sim.GlobalState, now int) {
	for _, k := range m.stepped {
		if !m.procs[k].entered {
			continue
		}
		for j := range g.Nodes {
			if j == k || g.Nodes[j].Phase != tme.Hungry {
				continue
			}
			reqJ := g.Nodes[j].REQ
			if g.Nodes[k].Local[j] == reqJ && reqJ.Less(g.Nodes[k].REQ) {
				tv := TimedViolation{
					Time: g.Time,
					V: &Violation{
						Op:    "ME3",
						Index: now,
						Detail: fmt.Sprintf("process %d entered knowing %d's earlier request %s < %s",
							k, j, reqJ, g.Nodes[k].REQ),
					},
				}
				m.fcfsViolations = append(m.fcfsViolations, tv)
				m.record(tv)
			}
		}
	}
}

// cadence is the rule for which events are observed. To keep monitoring
// affordable on long runs, snapshots are taken only after events that
// changed an activity counter (deliveries, client actions, sends) and at
// most once per virtual-time instant otherwise: repeated closed-guard or
// cancelled wrapper deadlines within one instant cannot have changed any
// node. State corruption between activity events is observed at the next
// observed event; violation times shift by at most one event. The rule
// defines the observation stream, hence every violation's Index.
type cadence struct {
	activity int
	time     int64
}

// due reports whether the event just processed is observed.
func (c *cadence) due(s *sim.Sim) bool {
	mt := s.Metrics()
	activity := mt.Delivered + mt.Requests + mt.Releases +
		mt.ProgramMsgs + mt.WrapperMsgs + len(mt.Entries)
	if activity == c.activity && s.Now() == c.time {
		return false
	}
	c.activity, c.time = activity, s.Now()
	return true
}

// AsObserver adapts the monitors to a sim.Observer (see cadence for which
// events it looks at).
//
// The snapshot is maintained incrementally, in one buffer (the check keeps
// no snapshot past its Observe): the simulator's dirty tracking says which
// processes changed since the last observation, only those are re-read, and
// only their steps run. An observation in which nothing changed and no
// clause is failing costs a version compare per process. The verdicts are
// identical to AsFullSnapshotObserver's (proven by the monitor parity
// tests); only the per-event work differs.
func (m *Monitors) AsObserver() sim.Observer {
	c := cadence{activity: -1, time: -1}
	var g sim.GlobalState
	var ver sim.SnapVersions
	return func(s *sim.Sim) {
		if c.due(s) {
			changed := s.SnapshotDeltaInto(&g, &ver)
			m.observe(g, changed)
		}
	}
}

// AsFullSnapshotObserver is the reference observer: identical observation
// cadence to AsObserver, but every snapshot is rebuilt from scratch with
// SnapshotInto and every process is judged on every observation. It
// exists so the parity tests can prove the incremental path equivalent;
// production callers want AsObserver.
func (m *Monitors) AsFullSnapshotObserver() sim.Observer {
	c := cadence{activity: -1, time: -1}
	var g sim.GlobalState
	return func(s *sim.Sim) {
		if c.due(s) {
			s.SnapshotInto(&g)
			m.Observe(g)
		}
	}
}

// Violations returns all safety violations (Lspec + ME1) with times.
func (m *Monitors) Violations() []TimedViolation { return m.violations }

// FCFSViolations returns the operational ME3 violations with times.
func (m *Monitors) FCFSViolations() []TimedViolation { return m.fcfsViolations }

// Stat summarizes one operator's violations.
type Stat struct {
	// Count is the number of violations; Last the latest virtual time.
	Count int
	Last  int64
}

// Summary aggregates violations by operator ("invariant", "unless",
// "request", "timestamp", "ME3"), with counts and last occurrence times.
func (m *Monitors) Summary() map[string]Stat {
	out := make(map[string]Stat)
	add := func(op string, t int64) {
		e := out[op]
		e.Count++
		if t > e.Last {
			e.Last = t
		}
		out[op] = e
	}
	for _, v := range m.violations {
		add(v.V.Op, v.Time)
	}
	for _, v := range m.fcfsViolations {
		add(v.V.Op, v.Time)
	}
	return out
}

// LastViolationTime returns the virtual time of the last safety or FCFS
// violation, or -1 if the run was clean.
func (m *Monitors) LastViolationTime() int64 {
	last := int64(-1)
	for _, v := range m.violations {
		if v.Time > last {
			last = v.Time
		}
	}
	for _, v := range m.fcfsViolations {
		if v.Time > last {
			last = v.Time
		}
	}
	return last
}

// StarvedProcesses returns the ids whose ME2 obligation (h.j ↦ e.j) is
// still open — hungry at the end of the run with no subsequent entry.
func (m *Monitors) StarvedProcesses() []int {
	var out []int
	for j := range m.procs {
		if m.procs[j].me2 {
			out = append(out, j)
		}
	}
	return out
}

// StuckEaters returns the ids whose CS Spec obligation (e.j ↦ ¬e.j) is
// still open at the end of the run.
func (m *Monitors) StuckEaters() []int {
	var out []int
	for j := range m.procs {
		if m.procs[j].phase == tme.Eating {
			out = append(out, j)
		}
	}
	return out
}

// OpenReplyObligations counts Reply Spec obligations still pending.
func (m *Monitors) OpenReplyObligations() int {
	total := 0
	for j := range m.procs {
		total += m.procs[j].replies
	}
	return total
}

// Clean reports whether the run satisfied every monitored property: no
// safety violations, no FCFS violations, and no open liveness obligations.
func (m *Monitors) Clean() bool {
	return len(m.violations) == 0 &&
		len(m.fcfsViolations) == 0 &&
		len(m.StarvedProcesses()) == 0 &&
		len(m.StuckEaters()) == 0 &&
		m.OpenReplyObligations() == 0
}
