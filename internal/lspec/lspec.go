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
//
// A violation is kept as a fixed-size, pointer-free record that names its
// clause: the virtual time, the observation index, the process (and the
// entrant, for ME3), and the phase or timestamps its report quotes.
// Records fill fixed blocks that never move, so recording one allocates
// only when a block fills; Violations and FCFSViolations render them into
// Violation reports when read.
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

// clause names the clause a violation record reports.
type clause uint8

const (
	clStructural clause = iota // Structural Spec: every phase is t, h or e
	clME1                      // ME1: at most one process eats
	clI                        // invariant I of Theorem A.1
	clTimestamp                // Timestamp Spec: ts.j never decreases
	clFlow                     // Flow Spec: t unless h, h unless e, e unless t
	clRequest                  // Request Spec: REQ_j is stable while hungry
	clRelease                  // CS Release Spec: thinking ⇒ REQ_j = ts.j
	clME3                      // ME3: no knowing overtake
)

// An op is the operator a clause's violation is reported under, and the
// per-operator counter it is published to.
type op uint8

const (
	opInvariant op = iota
	opUnless
	opTimestamp
	opRequest
	opME3
	numOps
)

// ops are the operators' names and counters, by op.
var ops = [numOps]struct{ name, metric, help string }{
	opInvariant: {"invariant", "spec_violations_invariant_total", "violations of the invariant operator"},
	opUnless:    {"unless", "spec_violations_unless_total", "violations of the unless operator"},
	opTimestamp: {"timestamp", "spec_violations_timestamp_total", "violations of the timestamp operator"},
	opRequest:   {"request", "spec_violations_request_total", "violations of the request operator"},
	opME3:       {"ME3", "spec_violations_me3_total", "violations of the ME3 operator"},
}

// clauseOp is the operator each clause is reported under.
var clauseOp = [...]op{
	clStructural: opInvariant, clME1: opInvariant, clI: opInvariant, clRelease: opInvariant,
	clTimestamp: opTimestamp, clFlow: opUnless, clRequest: opRequest, clME3: opME3,
}

// maxProcs is the most processes a record can name.
const maxProcs = 1 << 16

// record is one violation as the check keeps it: a pointer-free 56-byte
// value that holds what its report quotes, rendered into a Violation only
// when read.
type record struct {
	time  int64
	index int
	// from and to are the timestamps the detail quotes: ts.j or REQ_j
	// before and after (Timestamp and Request Spec), or the overtaken
	// request and the entrant's own (ME3). Flow Spec keeps the phase left
	// in from.Clock.
	from, to ltime.Timestamp
	// j is the process the clause reads; k the entrant of an ME3 overtake.
	j, k   uint16
	clause clause
}

// violation renders r exactly as the clause reports it.
func (r *record) violation() *Violation {
	v := &Violation{Op: ops[clauseOp[r.clause]].name, Index: r.index}
	switch r.clause {
	case clStructural:
		v.Detail = "structural: p does not hold"
	case clME1:
		v.Detail = "ME1: p does not hold"
	case clI:
		v.Detail = "invariant-I: p does not hold"
	case clTimestamp:
		v.Detail = fmt.Sprintf("timestamp.%d: ts regressed from %s to %s", r.j, r.from, r.to)
	case clFlow:
		v.Detail = fmt.Sprintf("flow.%s.%d: p ∧ ¬q held but next state satisfies ¬p ∧ ¬q", tme.Phase(r.from.Clock), r.j)
	case clRequest:
		v.Detail = fmt.Sprintf("request.req-stable.%d: REQ changed from %s to %s while hungry", r.j, r.from, r.to)
	case clRelease:
		v.Detail = fmt.Sprintf("release.req-tracks-ts.%d: p does not hold", r.j)
	case clME3:
		v.Detail = fmt.Sprintf("process %d entered knowing %d's earlier request %s < %s", r.k, r.j, r.from, r.to)
	default:
		panic(fmt.Sprintf("lspec: record of unknown clause %d", r.clause))
	}
	return v
}

// chunkRecords is how many records a violation log allocates at a time.
const chunkRecords = 32

// logChunk is one fixed block of a violation log's records. The blocks are
// linked in order and never move, so recording a violation allocates only
// when a block fills.
type logChunk struct {
	recs [chunkRecords]record
	next *logChunk
}

// violationLog is one violation stream, held as records and rendered into
// TimedViolations only when read. What was rendered is kept, so reading the
// stream after every observation renders each violation once.
type violationLog struct {
	head, tail *logChunk
	n          int // records held
	rendered   []TimedViolation
	// cur is the block holding the last rendered record.
	cur *logChunk
}

// add appends r.
func (l *violationLog) add(r record) {
	i := l.n % chunkRecords
	if i == 0 {
		c := new(logChunk)
		if l.tail == nil {
			l.head = c
		} else {
			l.tail.next = c
		}
		l.tail = c
	}
	l.tail.recs[i] = r
	l.n++
}

// each calls f on every record, in order.
func (l *violationLog) each(f func(*record)) {
	left := l.n
	for c := l.head; left > 0; c = c.next {
		for i := range c.recs[:min(left, chunkRecords)] {
			f(&c.recs[i])
		}
		left -= chunkRecords
	}
}

// render returns the whole stream as TimedViolations.
func (l *violationLog) render() []TimedViolation {
	for i := len(l.rendered); i < l.n; i++ {
		switch {
		case i == 0:
			l.cur = l.head
		case i%chunkRecords == 0:
			l.cur = l.cur.next
		}
		r := &l.cur.recs[i%chunkRecords]
		l.rendered = append(l.rendered, TimedViolation{Time: r.time, V: r.violation()})
	}
	return l.rendered
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
	// stepped lists the processes the current observation judges, in
	// ascending order: the moved set itself, or, while some process fails
	// CS Release, merged, the moved set with the failing processes merged
	// in.
	stepped, merged []int
	// everyone lists every process: what Observe, which is told nothing
	// about its snapshot, passes for the moved set.
	everyone []int
	// invalid, eating and releaseFailing count the processes whose last
	// judged state has an invalid phase, is eating, or breaks CS Release.
	invalid, eating, releaseFailing int
	// iHolds records that invariant I held at the last observation.
	iHolds bool

	// violations are the safety violations (Lspec and ME1); fcfs the
	// knowing-overtake events (operational ME3 violations).
	violations, fcfs violationLog
	obs              int

	// observability (nil fields when not instrumented): every verdict
	// becomes a first-class violation event with convergence bookkeeping.
	otel struct {
		reg   *obs.Registry
		total *obs.Counter
		// byOp holds each operator's counter, registered on its first
		// violation.
		byOp  [numOps]*obs.Counter
		trace *obs.Trace
		conv  *obs.Convergence
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
	m.otel.reg = o.Registry()
	m.otel.total = m.otel.reg.Counter("spec_violations_total", "spec-monitor violations (Lspec + TME_Spec + ME3)")
	m.otel.trace = o.Tracer()
	m.otel.conv = o.Convergence()
}

// add records one violation in l and publishes it.
func (m *Monitors) add(l *violationLog, r record) {
	l.add(r)
	if m.otel.reg == nil {
		return
	}
	m.otel.total.Inc()
	o := clauseOp[r.clause]
	c := m.otel.byOp[o]
	if c == nil {
		c = m.otel.reg.Counter(ops[o].metric, ops[o].help)
		m.otel.byOp[o] = c
	}
	c.Inc()
	m.otel.conv.RecordViolation(r.time)
	m.otel.trace.Emit(obs.Event{Time: r.time, Kind: obs.EvViolation, A: -1, B: -1, Detail: ops[o].name})
}

// New returns monitors for an n-process system.
func New(n int) *Monitors {
	if n > maxProcs {
		panic(fmt.Sprintf("lspec: %d processes, at most %d", n, maxProcs))
	}
	ids := make([]int, 2*n)
	m := &Monitors{procs: make([]proc, n), merged: ids[n:n], everyone: ids[:n], iHolds: true}
	for j := range m.everyone {
		m.everyone[j] = j
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
func invariantIAround(g *sim.GlobalState, j int) bool {
	nj := &g.Nodes[j]
	for k := range g.Nodes {
		if k != j && !(nj.Local[k].LessEq(g.Nodes[k].REQ) && g.Nodes[k].Local[j].LessEq(nj.REQ)) {
			return false
		}
	}
	return true
}

// Observe feeds the next snapshot to all monitors.
func (m *Monitors) Observe(g sim.GlobalState) { m.observe(&g, m.everyone) }

// observe feeds the next snapshot, which differs from the previous one at
// most in the processes moved lists, in ascending order. The first
// observation judges every process whatever moved says.
func (m *Monitors) observe(g *sim.GlobalState, moved []int) {
	now := m.obs
	m.obs++
	if now == 0 {
		moved = m.everyone
	}
	if len(moved) == 0 && m.releaseFailing == 0 && m.invalid == 0 && m.eating <= 1 && m.iHolds {
		return
	}
	// Step the moved processes, and those whose CS Release invariant
	// fails (it is reported on every state it fails in).
	m.stepped = moved
	if m.releaseFailing > 0 {
		merged, next := m.merged[:0], 0
		for j := range m.procs {
			if next < len(moved) && moved[next] == j {
				next++
			} else if m.procs[j].broke&brokeRelease == 0 {
				continue
			}
			merged = append(merged, j)
		}
		m.stepped, m.merged = merged, merged
	}
	var broke uint8
	for _, j := range m.stepped {
		p := &m.procs[j]
		m.count(p, -1)
		broke |= p.step(j, &g.Nodes[j])
		m.count(p, 1)
	}
	switch {
	case len(moved) == 0:
	case len(moved) == 1 && m.iHolds:
		m.iHolds = invariantIAround(g, moved[0])
	default:
		m.iHolds = InvariantI(*g)
	}
	m.report(g.Time, now, broke)
	if len(moved) > 0 {
		m.checkFCFS(g, now)
	}
}

// report records the violations of observation now, in the order the
// clauses are listed in: Structural, ME1 and invariant I, then each
// per-process clause for every process in turn.
func (m *Monitors) report(t int64, now int, broke uint8) {
	if m.invalid > 0 {
		m.add(&m.violations, record{time: t, index: now, clause: clStructural})
	}
	if m.eating > 1 {
		m.add(&m.violations, record{time: t, index: now, clause: clME1})
	}
	if !m.iHolds {
		m.add(&m.violations, record{time: t, index: now, clause: clI})
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
			// A transition clause is reported at the state whose successor
			// broke it, an invariant at the state judged.
			r := record{time: t, index: now - 1, j: uint16(j)}
			switch clause {
			case brokeTS:
				r.clause, r.from, r.to = clTimestamp, p.wasTS, p.ts
			case brokeFlow:
				r.clause, r.from.Clock = clFlow, uint64(p.was)
			case brokeREQ:
				r.clause, r.from, r.to = clRequest, p.wasREQ, p.req
			case brokeRelease:
				r.clause, r.index = clRelease, now
			}
			m.add(&m.violations, r)
		}
	}
}

// checkFCFS flags a "knowing overtake": process k transitions into eating
// while some hungry j holds an earlier request that k has recorded exactly
// (k.REQ_j = REQ_j). Recording j's request implies it causally preceded k's
// entry, so this is an operational ME3 violation.
func (m *Monitors) checkFCFS(g *sim.GlobalState, now int) {
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
				m.add(&m.fcfs, record{time: g.Time, index: now, clause: clME3,
					from: reqJ, to: g.Nodes[k].REQ, j: uint16(j), k: uint16(k)})
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
// no snapshot past its Observe): each observation drains the simulator's
// moved set (sim.Sim.Moved), re-reads exactly the processes it names, one
// tme.SnapshotInto each, and steps those plus any whose CS Release
// invariant is failing. An observation in which nothing moved and no
// clause is failing costs one drain of an empty set. The verdicts are
// identical to AsFullSnapshotObserver's (proven by the monitor parity
// tests); only the per-event work differs. The observer is the moved set's
// one reader: install one AsObserver per simulation.
func (m *Monitors) AsObserver() sim.Observer {
	o := &observer{m: m, c: cadence{activity: -1, time: -1}, moved: make([]int, 0, len(m.procs))}
	return o.observe
}

// observer is AsObserver's state, in one allocation.
type observer struct {
	m     *Monitors
	c     cadence
	g     sim.GlobalState
	moved []int
}

func (o *observer) observe(s *sim.Sim) {
	if !o.c.due(s) {
		return
	}
	moved, all := s.Moved(o.moved[:0])
	o.moved = moved
	if !all && o.m.obs == 0 {
		moved = o.m.everyone // the first observation reads every process
	}
	o.g.Time = s.Now()
	o.g.Reserve(s.N())
	for _, j := range moved {
		tme.SnapshotInto(s.Node(j), &o.g.Nodes[j])
	}
	o.m.observe(&o.g, moved)
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

// Violations returns all safety violations (Lspec + ME1) with times. They
// are rendered from the check's records when read.
func (m *Monitors) Violations() []TimedViolation { return m.violations.render() }

// FCFSViolations returns the operational ME3 violations with times.
func (m *Monitors) FCFSViolations() []TimedViolation { return m.fcfs.render() }

// Stat summarizes one operator's violations.
type Stat struct {
	// Count is the number of violations; Last the latest virtual time.
	Count int
	Last  int64
}

// Summary aggregates violations by operator ("invariant", "unless",
// "request", "timestamp", "ME3"), with counts and last occurrence times.
func (m *Monitors) Summary() map[string]Stat {
	var by [numOps]Stat
	tally := func(r *record) {
		e := &by[clauseOp[r.clause]]
		e.Count++
		e.Last = max(e.Last, r.time)
	}
	m.violations.each(tally)
	m.fcfs.each(tally)
	out := make(map[string]Stat)
	for o, e := range by {
		if e.Count > 0 {
			out[ops[o].name] = e
		}
	}
	return out
}

// LastViolationTime returns the virtual time of the last safety or FCFS
// violation, or -1 if the run was clean.
func (m *Monitors) LastViolationTime() int64 {
	last := int64(-1)
	latest := func(r *record) { last = max(last, r.time) }
	m.violations.each(latest)
	m.fcfs.each(latest)
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
	return m.violations.n == 0 &&
		m.fcfs.n == 0 &&
		len(m.StarvedProcesses()) == 0 &&
		len(m.StuckEaters()) == 0 &&
		m.OpenReplyObligations() == 0
}
