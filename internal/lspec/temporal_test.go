package lspec

import (
	"testing"
	"testing/quick"
)

// The UNITY-style temporal operators the paper states its specifications
// in (DSN 2001, §3.1, after Chandy & Misra), which the oracle writes each
// clause with:
//
//	p unless q   — if p ∧ ¬q holds at a state, the next state satisfies p ∨ q
//	invariant(p) — p holds initially and is stable
//	p ↦ q        — p leads-to q: whenever p holds, q holds then or later
//
// Trace functions (unless, leadsTo) decide an operator over a complete
// finite computation; monitors consume states one at a time. The monitors
// are held to the trace functions below.

// predicate is a state predicate over states of type S.
type predicate[S any] func(S) bool

// monitor consumes a computation one state at a time and reports violations
// online. Monitors are non-latching: they report every violating state or
// transition, not just the first, so callers can locate the last violation
// of a run, the quantity stabilization measurements need.
type monitor[S any] interface {
	// Observe feeds the next state of the computation. It returns a
	// non-nil violation whenever the property fails at this state or on
	// the transition into it.
	Observe(s S) *Violation
}

// unless checks "p unless q" over trace. It returns nil if the property
// holds, or the first violation: a state where p ∧ ¬q held but the successor
// satisfied ¬p ∧ ¬q.
func unless[S any](trace []S, p, q predicate[S]) *Violation {
	for i := 0; i+1 < len(trace); i++ {
		if p(trace[i]) && !q(trace[i]) {
			next := trace[i+1]
			if !p(next) && !q(next) {
				return &Violation{
					Op:     "unless",
					Index:  i,
					Detail: "p ∧ ¬q held but next state satisfies ¬p ∧ ¬q",
				}
			}
		}
	}
	return nil
}

// leadsTo checks p ↦ q over a finite trace: every position where p holds
// must be followed (at that position or later) by a position where q holds.
// An obligation still open at the end of the trace is reported as a
// violation.
func leadsTo[S any](trace []S, p, q predicate[S]) *Violation {
	// Scan right-to-left tracking the nearest future q.
	nextQ := -1
	earliestUnmet := -1
	for i := len(trace) - 1; i >= 0; i-- {
		if q(trace[i]) {
			nextQ = i
		}
		if p(trace[i]) && nextQ == -1 {
			earliestUnmet = i
		}
	}
	if earliestUnmet >= 0 {
		return &Violation{
			Op:     "leads-to",
			Index:  earliestUnmet,
			Detail: "p held but q never held at or after it within the trace",
		}
	}
	return nil
}

// unlessMonitor checks p unless q online.
type unlessMonitor[S any] struct {
	name     string
	p, q     predicate[S]
	idx      int
	havePrev bool
	prevPnQ  bool // p ∧ ¬q held at the previous state
}

// newUnless returns an online monitor for "p unless q".
func newUnless[S any](name string, p, q predicate[S]) monitor[S] {
	return &unlessMonitor[S]{name: name, p: p, q: q}
}

func (m *unlessMonitor[S]) Observe(s S) *Violation {
	idx := m.idx
	m.idx++
	// Each predicate once; q decides nothing where p neither holds now nor
	// held (with ¬q) before.
	pv := m.p(s)
	qv := (pv || m.prevPnQ) && m.q(s)
	bad := m.havePrev && m.prevPnQ && !pv && !qv
	m.havePrev = true
	m.prevPnQ = pv && !qv
	if bad {
		return &Violation{Op: "unless", Index: idx - 1,
			Detail: m.name + ": p ∧ ¬q held but next state satisfies ¬p ∧ ¬q"}
	}
	return nil
}

// invariantMonitor checks "p is invariant" online, reporting every state
// where p fails: a per-state reading of the invariant that lets callers
// locate the last bad state of a run.
type invariantMonitor[S any] struct {
	name string
	p    predicate[S]
	idx  int
}

// newInvariant returns an online monitor reporting every state where p
// fails.
func newInvariant[S any](name string, p predicate[S]) monitor[S] {
	return &invariantMonitor[S]{name: name, p: p}
}

func (m *invariantMonitor[S]) Observe(s S) *Violation {
	idx := m.idx
	m.idx++
	if !m.p(s) {
		return &Violation{Op: "invariant", Index: idx, Detail: m.name + ": p does not hold"}
	}
	return nil
}

// leadsToMonitor checks p ↦ q online. A violation can only be detected at
// trace end (liveness), so Observe never fails; callers read Pending after
// the run, or Finish.
type leadsToMonitor[S any] struct {
	name string
	p, q predicate[S]
	// selfNeg marks q ≡ ¬p (the "p is transient" shape), evaluating p once
	// per state instead of twice.
	selfNeg   bool
	idx       int
	openSince int // index of the earliest unmet p, -1 if none
	open      int // number of distinct p-positions currently unmet
}

// newLeadsTo returns an online monitor for p ↦ q.
func newLeadsTo[S any](name string, p, q predicate[S]) *leadsToMonitor[S] {
	return &leadsToMonitor[S]{name: name, p: p, q: q, openSince: -1}
}

// newLeadsToNot returns an online monitor for p ↦ ¬p ("p is transient"),
// the shape of CS Spec and the Reply Spec discharge obligations.
func newLeadsToNot[S any](name string, p predicate[S]) *leadsToMonitor[S] {
	return &leadsToMonitor[S]{name: name, p: p, selfNeg: true, openSince: -1}
}

// Pending returns the number of open (unmet) obligations.
func (m *leadsToMonitor[S]) Pending() int { return m.open }

func (m *leadsToMonitor[S]) Observe(s S) *Violation {
	idx := m.idx
	m.idx++
	pv := m.p(s)
	var qv bool
	if m.selfNeg {
		qv = !pv
	} else {
		qv = m.q(s)
	}
	if qv {
		m.open = 0
		m.openSince = -1
	}
	if pv && !qv {
		if m.openSince == -1 {
			m.openSince = idx
		}
		m.open++
	}
	return nil
}

// Finish reports a violation if obligations remain open at trace end.
func (m *leadsToMonitor[S]) Finish() *Violation {
	if m.open > 0 {
		return &Violation{Op: "leads-to", Index: m.openSince,
			Detail: m.name + ": obligation open at end of trace"}
	}
	return nil
}

// suite feeds every state to every monitor, in registration order,
// collecting violations. The zero value is an empty suite.
type suite[S any] struct {
	monitors   []monitor[S]
	violations []*Violation
}

func (su *suite[S]) add(m monitor[S]) { su.monitors = append(su.monitors, m) }

func (su *suite[S]) observe(s S) {
	for _, m := range su.monitors {
		if v := m.Observe(s); v != nil {
			su.violations = append(su.violations, v)
		}
	}
}

// Integer-state helpers for the operator tests.
func ge(n int) predicate[int] { return func(s int) bool { return s >= n } }
func eq(n int) predicate[int] { return func(s int) bool { return s == n } }
func never(int) bool          { return false }
func even(s int) bool         { return s%2 == 0 }
func trace(xs ...int) []int   { return xs }

func TestUnlessHolds(t *testing.T) {
	// counter that only increases: "s==k unless s>k" holds for any k.
	tr := trace(0, 1, 2, 3, 4)
	if v := unless(tr, eq(2), ge(3)); v != nil {
		t.Errorf("unless violated: %v", v)
	}
}

func TestUnlessViolated(t *testing.T) {
	// p = s==2, q = s>=5: state 2 followed by 1 violates.
	tr := trace(2, 1)
	v := unless(tr, eq(2), ge(5))
	if v == nil {
		t.Fatal("expected violation")
	}
	if v.Index != 0 || v.Op != "unless" {
		t.Errorf("violation = %+v", v)
	}
	if v.Error() == "" {
		t.Error("empty error string")
	}
}

func TestUnlessVacuous(t *testing.T) {
	// p never holds: unless is vacuously true.
	tr := trace(1, 2, 3)
	if v := unless(tr, eq(99), never); v != nil {
		t.Errorf("vacuous unless violated: %v", v)
	}
	// q holds whenever p does: also fine even if p is lost.
	tr2 := trace(5, 0)
	if v := unless(tr2, ge(5), ge(5)); v != nil {
		t.Errorf("unless with p⇒q violated: %v", v)
	}
}

func TestLeadsTo(t *testing.T) {
	// every 1 is followed by a 9
	tr := trace(1, 0, 9, 1, 9)
	if v := leadsTo(tr, eq(1), eq(9)); v != nil {
		t.Errorf("leads-to violated: %v", v)
	}
	// q at the same position counts
	if v := leadsTo(trace(9), eq(9), eq(9)); v != nil {
		t.Errorf("leads-to same-state violated: %v", v)
	}
	// open obligation at end is a violation
	v := leadsTo(trace(0, 1, 0), eq(1), eq(9))
	if v == nil || v.Index != 1 {
		t.Errorf("leads-to: got %+v, want violation at 1", v)
	}
}

// Property: the online unless monitor agrees with the trace checker.
func TestUnlessMonitorAgreesWithTraceChecker(t *testing.T) {
	f := func(raw []byte, pn, qn uint8) bool {
		tr := make([]int, len(raw))
		for i, b := range raw {
			tr[i] = int(b % 8)
		}
		p := eq(int(pn % 8))
		q := eq(int(qn % 8))
		want := unless(tr, p, q)
		m := newUnless("t", p, q)
		var got *Violation
		for _, s := range tr {
			if v := m.Observe(s); v != nil && got == nil {
				got = v
			}
		}
		if (want == nil) != (got == nil) {
			return false
		}
		if want != nil && want.Index != got.Index {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the online leads-to monitor agrees with the trace checker.
func TestLeadsToMonitorAgreesWithTraceChecker(t *testing.T) {
	f := func(raw []byte, pn, qn uint8) bool {
		tr := make([]int, len(raw))
		for i, b := range raw {
			tr[i] = int(b % 6)
		}
		p := eq(int(pn % 6))
		q := eq(int(qn % 6))
		want := leadsTo(tr, p, q)
		m := newLeadsTo("t", p, q)
		for _, s := range tr {
			m.Observe(s)
		}
		got := m.Finish()
		if (want == nil) != (got == nil) {
			return false
		}
		if want != nil && want.Index != got.Index {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInvariantMonitor(t *testing.T) {
	m := newInvariant("ge2", ge(2))
	if v := m.Observe(1); v == nil || v.Index != 0 {
		t.Errorf("initial violation: got %+v", v)
	}
	// Non-latching: every bad state reports, so the last violation of a
	// run can be located.
	if v := m.Observe(0); v == nil || v.Index != 1 {
		t.Errorf("second bad state not reported: %+v", v)
	}
	if v := m.Observe(5); v != nil {
		t.Errorf("good state reported: %v", v)
	}

	m2 := newInvariant("ge2", ge(2))
	m2.Observe(3)
	m2.Observe(4)
	if v := m2.Observe(1); v == nil {
		t.Error("stability break not reported")
	}
}

func TestUnlessMonitorNonLatching(t *testing.T) {
	// Two separate bad transitions must both report.
	m := newUnless("t", eq(2), ge(5))
	var got []int
	for _, s := range trace(2, 1, 2, 0) {
		if v := m.Observe(s); v != nil {
			got = append(got, v.Index)
		}
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("violation indices = %v, want [0 2]", got)
	}
}

func TestLeadsToMonitorAccounting(t *testing.T) {
	m := newLeadsTo("req", eq(1), eq(9))
	m.Observe(1)
	m.Observe(1)
	if m.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", m.Pending())
	}
	if m.openSince != 0 {
		t.Errorf("openSince = %d, want 0", m.openSince)
	}
	m.Observe(9)
	if m.Pending() != 0 {
		t.Errorf("after q: pending=%d", m.Pending())
	}
	if v := m.Finish(); v != nil {
		t.Errorf("Finish: %v", v)
	}
}

func TestSuite(t *testing.T) {
	var su suite[int]
	su.add(newUnless("nonneg", ge(0), never))
	su.add(newInvariant("even", even))
	lt := newLeadsTo("one-to-two", eq(1), eq(2))
	su.add(lt)
	for _, s := range trace(0, 2, 4, 1, 2) {
		su.observe(s)
	}
	// "even" is violated at state 1 (index 3).
	if vs := su.violations; len(vs) != 1 {
		t.Fatalf("violations = %d (%v), want 1", len(vs), vs)
	}
	if lt.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", lt.Pending())
	}
}
