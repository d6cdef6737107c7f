package spec

// Monitor consumes a computation one state at a time and reports temporal
// predicate violations online, so long simulations need not retain traces.
// Monitors are non-latching: they report every violating state or
// transition, not just the first, so callers can locate the *last*
// violation of a run — the quantity stabilization measurements need.
// Implementations are not safe for concurrent use.
type Monitor[S any] interface {
	// Observe feeds the next state of the computation. It returns a
	// non-nil violation whenever the property fails at this state or on
	// the transition into it.
	Observe(s S) *Violation
	// Pending reports how many obligations remain open (nonzero only for
	// liveness monitors such as leads-to, where p held but q has not yet).
	Pending() int
	// Name identifies the monitored property in reports.
	Name() string
}

// unlessMonitor checks p unless q online.
type unlessMonitor[S any] struct {
	name     string
	p, q     Predicate[S]
	idx      int
	havePrev bool
	prevPnQ  bool // p ∧ ¬q held at the previous state
}

// NewUnless returns an online monitor for "p unless q".
func NewUnless[S any](name string, p, q Predicate[S]) Monitor[S] {
	return &unlessMonitor[S]{name: name, p: p, q: q}
}

func (m *unlessMonitor[S]) Name() string { return m.name }
func (m *unlessMonitor[S]) Pending() int { return 0 }

// Observe feeds the next state.
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

// NewStable returns an online monitor for stable(p).
func NewStable[S any](name string, p Predicate[S]) Monitor[S] {
	return NewUnless(name, p, False[S])
}

// invariantMonitor checks "p is invariant" online. Online it reports every
// state where p fails — a strictly stronger, per-state reading of the
// invariant that lets callers locate the last bad state of a run.
type invariantMonitor[S any] struct {
	name string
	p    Predicate[S]
	idx  int
}

// NewInvariant returns an online monitor reporting every state where p
// fails.
func NewInvariant[S any](name string, p Predicate[S]) Monitor[S] {
	return &invariantMonitor[S]{name: name, p: p}
}

func (m *invariantMonitor[S]) Name() string { return m.name }
func (m *invariantMonitor[S]) Pending() int { return 0 }

// Observe feeds the next state.
func (m *invariantMonitor[S]) Observe(s S) *Violation {
	idx := m.idx
	m.idx++
	if !m.p(s) {
		return &Violation{Op: "invariant", Index: idx, Detail: m.name + ": p does not hold"}
	}
	return nil
}

// leadsToMonitor checks p ↦ q online. A violation can only be detected at
// trace end (liveness), so Observe never fails; callers inspect Pending
// after the run has quiesced, or use Deadline-bounded variants in harnesses.
type leadsToMonitor[S any] struct {
	name string
	p, q Predicate[S]
	// selfNeg marks q ≡ ¬p (the "p is transient" shape), letting Observe
	// evaluate p once per state instead of twice.
	selfNeg    bool
	idx        int
	openSince  int // index of the earliest unmet p, -1 if none
	open       int // number of distinct p-positions currently unmet
	discharged int // obligations met so far
}

// LeadsToMonitor is an online checker for p ↦ q with obligation accounting.
type LeadsToMonitor[S any] struct{ m leadsToMonitor[S] }

// NewLeadsTo returns an online monitor for p ↦ q.
func NewLeadsTo[S any](name string, p, q Predicate[S]) *LeadsToMonitor[S] {
	return &LeadsToMonitor[S]{m: leadsToMonitor[S]{name: name, p: p, q: q, openSince: -1}}
}

// NewLeadsToNot returns an online monitor for p ↦ ¬p ("p is transient"),
// equivalent to NewLeadsTo(name, p, Not(p)) but evaluating p once per
// state — the shape of CS Spec and the Reply Spec discharge obligations.
func NewLeadsToNot[S any](name string, p Predicate[S]) *LeadsToMonitor[S] {
	return &LeadsToMonitor[S]{m: leadsToMonitor[S]{name: name, p: p, selfNeg: true, openSince: -1}}
}

// Name identifies the property.
func (l *LeadsToMonitor[S]) Name() string { return l.m.name }

// Pending returns the number of open (unmet) obligations.
func (l *LeadsToMonitor[S]) Pending() int { return l.m.open }

// Discharged returns the number of obligations met so far.
func (l *LeadsToMonitor[S]) Discharged() int { return l.m.discharged }

// OpenSince returns the index of the earliest open obligation, or -1.
func (l *LeadsToMonitor[S]) OpenSince() int { return l.m.openSince }

// Observe feeds the next state. It never returns a violation (leads-to can
// only fail at infinity); use Finish at end of trace.
func (l *LeadsToMonitor[S]) Observe(s S) *Violation {
	m := &l.m
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
		m.discharged += m.open
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
func (l *LeadsToMonitor[S]) Finish() *Violation {
	if l.m.open > 0 {
		return &Violation{Op: "leads-to", Index: l.m.openSince,
			Detail: l.m.name + ": obligation open at end of trace"}
	}
	return nil
}

var _ Monitor[int] = (*LeadsToMonitor[int])(nil)

// Suite aggregates monitors and feeds every state to every one of them.
type Suite[S any] struct {
	monitors   []Monitor[S]
	violations []*Violation
}

// NewSuite returns a Suite over the given monitors.
func NewSuite[S any](ms ...Monitor[S]) *Suite[S] {
	return &Suite[S]{monitors: append([]Monitor[S](nil), ms...)}
}

// Add registers a monitor.
func (su *Suite[S]) Add(m Monitor[S]) { su.monitors = append(su.monitors, m) }

// Observe feeds s to every monitor, in registration order, collecting
// violations.
func (su *Suite[S]) Observe(s S) {
	for _, m := range su.monitors {
		if v := m.Observe(s); v != nil {
			su.violations = append(su.violations, v)
		}
	}
}

// Violations returns all violations recorded so far.
func (su *Suite[S]) Violations() []*Violation { return su.violations }

// Pending sums open obligations across monitors.
func (su *Suite[S]) Pending() int {
	total := 0
	for _, m := range su.monitors {
		total += m.Pending()
	}
	return total
}
