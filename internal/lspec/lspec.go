// Package lspec realizes the paper's two specifications as executable
// monitors over simulation snapshots:
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
// Monitors are how stabilization is *measured*: during fault bursts they
// record violations with their virtual times; convergence time is the last
// violation time after the last fault (plus liveness obligations draining).
// Theorem 5 (Lspec ⇒ TME_Spec) becomes the testable statement that runs
// with no Lspec violations have no TME_Spec violations.
package lspec

import (
	"fmt"

	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/sim"
	"github.com/graybox-stabilization/graybox/internal/spec"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

// TimedViolation is a spec violation stamped with virtual time.
type TimedViolation struct {
	Time int64
	V    *spec.Violation
}

func (t TimedViolation) String() string {
	return fmt.Sprintf("t=%d %v", t.Time, t.V)
}

// Monitors checks a full simulation run against Lspec and TME_Spec.
// Construct with New, feed every snapshot to Observe (typically from a
// sim.Observer), and read the verdicts at the end.
//
// Lspec is a local specification and the monitors are as local as it is:
// every clause that reads the variables of one process j is registered with
// the suite as scoped to j and is re-evaluated only on observations in which
// j changed. Structural Spec, ME1 and invariant I read several processes and
// are re-evaluated whenever any process changed.
type Monitors struct {
	n     int
	suite *spec.Suite[sim.GlobalState]
	// everyone marks every process changed: what Observe, which is told
	// nothing about its snapshot, passes for the change set.
	everyone []bool
	// me2 tracks h.j ↦ e.j per process (liveness: open obligations at the
	// end of a run are starvation).
	me2 []*spec.LeadsToMonitor[sim.GlobalState]
	// csTransient tracks e.j ↦ ¬e.j per process (CS Spec).
	csTransient []*spec.LeadsToMonitor[sim.GlobalState]
	// replyPending tracks Reply Spec: a pending earlier request is
	// eventually discharged, per ordered pair.
	replyPending []*spec.LeadsToMonitor[sim.GlobalState]

	violations []TimedViolation
	// prevPhases retains the previous observation's client phases — all
	// checkFCFS needs from the prior state — so observing costs no heap
	// copy of the snapshot.
	prevPhases []tme.Phase
	havePrev   bool
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
	m := &Monitors{n: n, suite: spec.NewSuite[sim.GlobalState](), everyone: make([]bool, n)}
	for j := range m.everyone {
		m.everyone[j] = true
	}

	// The three clauses that read more than one process come first and
	// stay unscoped.
	//
	// Structural Spec: every phase is exactly one of {t,h,e}.
	m.suite.Add(spec.NewInvariant("structural", func(g sim.GlobalState) bool {
		for _, s := range g.Nodes {
			if !s.Phase.Valid() {
				return false
			}
		}
		return true
	}))

	// ME1 (TME_Spec): at most one process eats.
	m.suite.Add(spec.NewInvariant("ME1", func(g sim.GlobalState) bool {
		return g.NumEating() <= 1
	}))

	// Invariant I of Theorem A.1: local copies never lead the truth.
	m.suite.Add(spec.NewInvariant("invariant-I", InvariantI))

	// Timestamp Spec: ts.j never decreases (checked pairwise between
	// consecutive snapshots via an unless monitor over the previous-state
	// trick below; here as a stable-difference check).
	for j := 0; j < n; j++ {
		j := j
		m.suite.AddScoped(&monotoneTS{name: fmt.Sprintf("timestamp.%d", j), j: j}, j)
	}

	// Flow Spec: t unless h, h unless e, e unless t — per process.
	for j := 0; j < n; j++ {
		j := j
		phaseIs := func(p tme.Phase) spec.Predicate[sim.GlobalState] {
			return func(g sim.GlobalState) bool { return g.Nodes[j].Phase == p }
		}
		m.suite.AddScoped(spec.NewUnless(fmt.Sprintf("flow.t.%d", j), phaseIs(tme.Thinking), phaseIs(tme.Hungry)), j)
		m.suite.AddScoped(spec.NewUnless(fmt.Sprintf("flow.h.%d", j), phaseIs(tme.Hungry), phaseIs(tme.Eating)), j)
		m.suite.AddScoped(spec.NewUnless(fmt.Sprintf("flow.e.%d", j), phaseIs(tme.Eating), phaseIs(tme.Thinking)), j)
	}

	// Request Spec (safety half): while hungry, REQ_j is unchanged.
	for j := 0; j < n; j++ {
		j := j
		m.suite.AddScoped(&stableREQ{name: fmt.Sprintf("request.req-stable.%d", j), j: j}, j)
	}

	// CS Release Spec: while thinking, REQ_j equals ts.j.
	for j := 0; j < n; j++ {
		j := j
		m.suite.AddScoped(spec.NewInvariant(fmt.Sprintf("release.req-tracks-ts.%d", j),
			func(g sim.GlobalState) bool {
				s := &g.Nodes[j]
				if s.Phase != tme.Thinking || !s.HasTS {
					return true
				}
				return s.REQ == s.TS
			}), j)
	}

	// CS Spec (liveness): e.j ↦ ¬e.j.
	for j := 0; j < n; j++ {
		j := j
		lt := spec.NewLeadsToNot(fmt.Sprintf("cs-transient.%d", j),
			func(g sim.GlobalState) bool { return g.Nodes[j].Phase == tme.Eating })
		m.csTransient = append(m.csTransient, lt)
		m.suite.AddScoped(lt, j)
	}

	// ME2 (liveness): h.j ↦ e.j.
	for j := 0; j < n; j++ {
		j := j
		lt := spec.NewLeadsTo(fmt.Sprintf("ME2.%d", j),
			func(g sim.GlobalState) bool { return g.Nodes[j].Phase == tme.Hungry },
			func(g sim.GlobalState) bool { return g.Nodes[j].Phase == tme.Eating })
		m.me2 = append(m.me2, lt)
		m.suite.AddScoped(lt, j)
	}

	// Reply Spec (liveness): received(j.REQ_k) ∧ j.REQ_k lt REQ_j — a
	// pending request that is earlier than ours — is eventually
	// discharged (flag cleared or our request resolved).
	for j := 0; j < n; j++ {
		for k := 0; k < n; k++ {
			if j == k {
				continue
			}
			j, k := j, k
			p := func(g sim.GlobalState) bool {
				s := &g.Nodes[j]
				return s.Received[k] && s.Local[k].Less(s.REQ)
			}
			lt := spec.NewLeadsToNot(fmt.Sprintf("reply.%d.%d", j, k), p)
			m.replyPending = append(m.replyPending, lt)
			m.suite.AddScoped(lt, j)
		}
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

// Observe feeds the next snapshot to all monitors.
func (m *Monitors) Observe(g sim.GlobalState) { m.observe(g, m.everyone) }

// observe feeds the next snapshot, which differs from the previous one at
// most in the processes j with changed[j] set, to the monitors that can
// tell the difference. An entry is a phase change, so the FCFS check and
// the phases it keeps need a look only when some process changed.
func (m *Monitors) observe(g sim.GlobalState, changed []bool) {
	before := len(m.suite.Violations())
	m.suite.ObserveChanged(g, changed)
	for _, v := range m.suite.Violations()[before:] {
		tv := TimedViolation{Time: g.Time, V: v}
		m.violations = append(m.violations, tv)
		m.record(tv)
	}
	some := false
	for _, c := range changed {
		some = some || c
	}
	if some {
		m.checkFCFS(g)
		if cap(m.prevPhases) < len(g.Nodes) {
			m.prevPhases = make([]tme.Phase, len(g.Nodes))
		}
		m.prevPhases = m.prevPhases[:len(g.Nodes)]
		for i := range g.Nodes {
			m.prevPhases[i] = g.Nodes[i].Phase
		}
		m.havePrev = true
	}
	m.obs++
}

// checkFCFS flags a "knowing overtake": process k transitions into eating
// while some hungry j holds an earlier request that k has recorded exactly
// (k.REQ_j = REQ_j). Recording j's request implies it causally preceded k's
// entry, so this is an operational ME3 violation.
func (m *Monitors) checkFCFS(g sim.GlobalState) {
	if !m.havePrev {
		return
	}
	for k := range g.Nodes {
		if g.Nodes[k].Phase != tme.Eating || m.prevPhases[k] == tme.Eating {
			continue
		}
		// k just entered.
		for j := range g.Nodes {
			if j == k || g.Nodes[j].Phase != tme.Hungry {
				continue
			}
			reqJ := g.Nodes[j].REQ
			if g.Nodes[k].Local[j] == reqJ && reqJ.Less(g.Nodes[k].REQ) {
				tv := TimedViolation{
					Time: g.Time,
					V: &spec.Violation{
						Op:    "ME3",
						Index: m.obs,
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
// The snapshot is maintained incrementally, in one buffer (no monitor keeps
// a snapshot past its Observe): the simulator's dirty tracking says which
// processes changed since the last observation, only those are re-read, and
// only the monitors that read them are re-evaluated. An observation in
// which nothing changed and no monitor is failing costs a version compare
// per process. The verdicts are identical to AsFullSnapshotObserver's
// (proven by the monitor parity tests); only the per-event work differs.
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
// SnapshotInto and every monitor is evaluated on every observation. It
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
	m.suite.CatchUp()
	var out []int
	for j, lt := range m.me2 {
		if lt.Pending() > 0 {
			out = append(out, j)
		}
	}
	return out
}

// StuckEaters returns the ids whose CS Spec obligation (e.j ↦ ¬e.j) is
// still open at the end of the run.
func (m *Monitors) StuckEaters() []int {
	m.suite.CatchUp()
	var out []int
	for j, lt := range m.csTransient {
		if lt.Pending() > 0 {
			out = append(out, j)
		}
	}
	return out
}

// OpenReplyObligations counts Reply Spec obligations still pending.
func (m *Monitors) OpenReplyObligations() int {
	m.suite.CatchUp()
	total := 0
	for _, lt := range m.replyPending {
		if lt.Pending() > 0 {
			total++
		}
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

// monotoneTS checks Timestamp Spec: ts.j never decreases across snapshots.
// It retains only the previous ts.j — not the whole snapshot — so observing
// copies two words per state instead of a GlobalState.
type monotoneTS struct {
	name      string
	j         int
	have      bool
	lastTS    ltime.Timestamp
	lastHasTS bool
}

func (mt *monotoneTS) Name() string { return mt.name }
func (mt *monotoneTS) Pending() int { return 0 }
func (mt *monotoneTS) Repeat(int)   {} // the same ts again is no regression

func (mt *monotoneTS) Observe(g sim.GlobalState) *spec.Violation {
	cur := &g.Nodes[mt.j]
	prevTS, prevHas, first := mt.lastTS, mt.lastHasTS, !mt.have
	mt.lastTS, mt.lastHasTS, mt.have = cur.TS, cur.HasTS, true
	if first || !prevHas || !cur.HasTS {
		return nil
	}
	if cur.TS.Less(prevTS) {
		return &spec.Violation{Op: "timestamp", Detail: fmt.Sprintf(
			"%s: ts regressed from %s to %s", mt.name, prevTS, cur.TS)}
	}
	return nil
}

// stableREQ checks the safety half of Request Spec / CS Entry Spec: while a
// process stays hungry, REQ_j does not change. Like monotoneTS it retains
// only the fields the next comparison needs.
type stableREQ struct {
	name      string
	j         int
	have      bool
	lastPhase tme.Phase
	lastREQ   ltime.Timestamp
}

func (sr *stableREQ) Name() string { return sr.name }
func (sr *stableREQ) Pending() int { return 0 }
func (sr *stableREQ) Repeat(int)   {} // the same REQ again is no change

func (sr *stableREQ) Observe(g sim.GlobalState) *spec.Violation {
	cur := &g.Nodes[sr.j]
	prevPhase, prevREQ, first := sr.lastPhase, sr.lastREQ, !sr.have
	sr.lastPhase, sr.lastREQ, sr.have = cur.Phase, cur.REQ, true
	if first {
		return nil
	}
	if prevPhase == tme.Hungry && cur.Phase == tme.Hungry && prevREQ != cur.REQ {
		return &spec.Violation{Op: "request", Detail: fmt.Sprintf(
			"%s: REQ changed from %s to %s while hungry", sr.name, prevREQ, cur.REQ)}
	}
	return nil
}

var (
	_ spec.Monitor[sim.GlobalState] = (*monotoneTS)(nil)
	_ spec.Monitor[sim.GlobalState] = (*stableREQ)(nil)
)
