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
	// Repeat stands for k more observations of the state last fed to
	// Observe. It is only called after an Observe that returned nil, and a
	// state judged nil is judged nil again when nothing moved, so Repeat has
	// no verdict to return: it advances the trace position and lets an
	// obligation that stands open count the extra positions. A Suite calls
	// it to bring a monitor it skipped up to date (see ObserveChanged).
	Repeat(k int)
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

// Repeat: p ∧ ¬q held or it did not; either way the same state again breaks
// nothing and leaves prevPnQ as it is.
func (m *unlessMonitor[S]) Repeat(k int) { m.idx += k }

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

// Repeat: p held at the last state and holds at its repeats.
func (m *invariantMonitor[S]) Repeat(k int) { m.idx += k }

// leadsToMonitor checks p ↦ q online. A violation can only be detected at
// trace end (liveness), so Observe never fails; callers inspect Pending
// after the run has quiesced, or use Deadline-bounded variants in harnesses.
type leadsToMonitor[S any] struct {
	name string
	p, q Predicate[S]
	// selfNeg marks q ≡ ¬p (the "p is transient" shape), letting Observe
	// evaluate p once per state instead of twice.
	selfNeg bool
	// standing records p ∧ ¬q at the last observed state: every repeat of
	// that state opens one more position.
	standing   bool
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
	m.standing = pv && !qv
	if m.standing {
		if m.openSince == -1 {
			m.openSince = idx
		}
		m.open++
	}
	return nil
}

// Repeat: if q held there is nothing left to discharge; if p ∧ ¬q stands,
// each repeat is one more unmet p-position (openSince was set at the first).
func (l *LeadsToMonitor[S]) Repeat(k int) {
	l.m.idx += k
	if l.m.standing {
		l.m.open += k
	}
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

// AllParts is the footprint of a monitor that may read the whole state.
const AllParts = -1

// Suite aggregates monitors and fans states out to them. A state is made
// of parts (for Lspec, one per process), each monitor is registered with the
// part it reads, and an observation names the parts that moved: a monitor
// whose part did not move would judge the same state again, so the suite
// skips it and accounts for the skipped positions with Repeat when the
// monitor is next needed.
type Suite[S any] struct {
	monitors []scoped[S]
	// every lists all monitor indices and readers[j] those whose footprint
	// covers part j (scoped to j, or AllParts), both in registration order:
	// the candidates of an observation in which anything, or only part j,
	// may have changed. Built by index.
	every   []int
	readers [][]int
	// nFailing counts the monitors with failing set.
	nFailing int
	// obs counts observations fed to the suite.
	obs        int
	violations []*Violation
}

// scoped is a registered monitor with the suite's bookkeeping for it.
type scoped[S any] struct {
	m Monitor[S]
	// part is the monitor's footprint: the index of the one part of the
	// state it reads, or AllParts.
	part int
	// seen is how many observations the monitor has accounted for, by
	// Observe or Repeat; it trails Suite.obs while the monitor is skipped.
	seen int
	// failing records that the monitor last returned a violation. Such a
	// monitor is never skipped: an invariant that fails on a state fails on
	// its repeats, and every one of them is reported (non-latching).
	failing bool
}

// catchUp accounts for the observations up to position to that e skipped.
func (e *scoped[S]) catchUp(to int) {
	if k := to - e.seen; k > 0 {
		e.m.Repeat(k)
		e.seen = to
	}
}

// NewSuite returns a Suite over the given monitors, each reading the whole
// state.
func NewSuite[S any](ms ...Monitor[S]) *Suite[S] {
	su := &Suite[S]{}
	for _, m := range ms {
		su.Add(m)
	}
	return su
}

// Add registers a monitor that may read the whole state.
func (su *Suite[S]) Add(m Monitor[S]) { su.AddScoped(m, AllParts) }

// AddScoped registers a monitor whose verdict depends on part j of the
// state only. Claiming too much (AllParts) costs evaluations; claiming too
// little loses verdicts. Register before the first observation.
func (su *Suite[S]) AddScoped(m Monitor[S], j int) {
	su.monitors = append(su.monitors, scoped[S]{m: m, part: j})
}

// index builds every and readers for the monitors registered so far.
func (su *Suite[S]) index() {
	parts, global := 0, 0
	for _, e := range su.monitors {
		if e.part == AllParts {
			global++
		} else if e.part >= parts {
			parts = e.part + 1
		}
	}
	su.every = make([]int, len(su.monitors))
	for i := range su.every {
		su.every[i] = i
	}
	// The reader lists are cut from one array: every part is read by the
	// AllParts monitors and each scoped monitor reads one part.
	flat := make([]int, 0, parts*global+len(su.monitors)-global)
	su.readers = make([][]int, parts)
	for j := range su.readers {
		start := len(flat)
		for i, e := range su.monitors {
			if e.part == AllParts || e.part == j {
				flat = append(flat, i)
			}
		}
		su.readers[j] = flat[start:]
	}
}

// Observe feeds s to every monitor, collecting violations.
func (su *Suite[S]) Observe(s S) { su.observe(s, nil, true) }

// ObserveChanged feeds s, the previous state except in the parts j with
// changed[j] set, to the monitors that read a changed part (a monitor
// registered with Add reads all of them) and to those whose last verdict
// was a violation, in registration order. Marking an unchanged part is
// safe; leaving a changed one unmarked hides it from its monitors. The
// first observation is fed to every monitor regardless.
func (su *Suite[S]) ObserveChanged(s S, changed []bool) { su.observe(s, changed, false) }

func (su *Suite[S]) observe(s S, changed []bool, all bool) {
	now := su.obs
	su.obs++
	all = all || now == 0
	nChanged, last := 0, 0
	for j, c := range changed {
		if c {
			nChanged, last = nChanged+1, j
		}
	}
	some := all || nChanged > 0
	if !some && su.nFailing == 0 {
		return
	}
	if len(su.every) != len(su.monitors) {
		su.index()
	}
	// The common observation changed one part and finds no monitor failing:
	// its candidates are that part's readers, not every monitor.
	candidates := su.every
	if !all && nChanged == 1 && su.nFailing == 0 && last < len(su.readers) {
		candidates = su.readers[last]
	}
	for _, i := range candidates {
		e := &su.monitors[i]
		if !(all || e.failing || (e.part == AllParts && some) || (e.part != AllParts && changed[e.part])) {
			continue
		}
		e.catchUp(now)
		e.seen = now + 1
		v := e.m.Observe(s)
		if v != nil {
			su.violations = append(su.violations, v)
		}
		if e.failing != (v != nil) {
			e.failing = v != nil
			if v != nil {
				su.nFailing++
			} else {
				su.nFailing--
			}
		}
	}
}

// CatchUp accounts, in every monitor the suite has been skipping, for the
// observations skipped, so that trace positions and open-obligation counts
// read as if every monitor had been fed every state.
func (su *Suite[S]) CatchUp() {
	for i := range su.monitors {
		su.monitors[i].catchUp(su.obs)
	}
}

// Violations returns all violations recorded so far.
func (su *Suite[S]) Violations() []*Violation { return su.violations }

// Pending sums open obligations across monitors.
func (su *Suite[S]) Pending() int {
	su.CatchUp()
	total := 0
	for _, e := range su.monitors {
		total += e.m.Pending()
	}
	return total
}
