package spec

import (
	"testing"
	"testing/quick"

	"github.com/graybox-stabilization/graybox/internal/seeded"
)

// Simple integer-state helpers.
func ge(n int) Predicate[int] { return func(s int) bool { return s >= n } }
func eq(n int) Predicate[int] { return func(s int) bool { return s == n } }
func lt(n int) Predicate[int] { return func(s int) bool { return s < n } }
func even(s int) bool         { return s%2 == 0 }
func trace(xs ...int) []int   { return xs }

func TestConnectives(t *testing.T) {
	p := And(ge(2), lt(5))
	if !p(3) || p(1) || p(5) {
		t.Error("And wrong")
	}
	q := Or(eq(0), eq(9))
	if !q(0) || !q(9) || q(4) {
		t.Error("Or wrong")
	}
	if Not(eq(1))(1) || !Not(eq(1))(2) {
		t.Error("Not wrong")
	}
	if !True[int](7) || False[int](7) {
		t.Error("True/False wrong")
	}
}

func TestUnlessHolds(t *testing.T) {
	// counter that only increases: "s==k unless s>k" holds for any k.
	tr := trace(0, 1, 2, 3, 4)
	if v := Unless(tr, eq(2), ge(3)); v != nil {
		t.Errorf("unless violated: %v", v)
	}
}

func TestUnlessViolated(t *testing.T) {
	// p = s==2, q = s>=5: state 2 followed by 1 violates.
	tr := trace(2, 1)
	v := Unless(tr, eq(2), ge(5))
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
	if v := Unless(tr, eq(99), False[int]); v != nil {
		t.Errorf("vacuous unless violated: %v", v)
	}
	// q holds whenever p does: also fine even if p is lost.
	tr2 := trace(5, 0)
	if v := Unless(tr2, ge(5), ge(5)); v != nil {
		t.Errorf("unless with p⇒q violated: %v", v)
	}
}

func TestStable(t *testing.T) {
	if v := Stable(trace(1, 2, 3), ge(1)); v != nil {
		t.Errorf("stable violated: %v", v)
	}
	v := Stable(trace(1, 2, 0), ge(1))
	if v == nil || v.Index != 1 {
		t.Errorf("stable: got %+v, want violation at 1", v)
	}
}

func TestInvariant(t *testing.T) {
	if v := Invariant(trace(2, 3, 4), ge(2)); v != nil {
		t.Errorf("invariant violated: %v", v)
	}
	if v := Invariant(trace(1, 3, 4), ge(2)); v == nil || v.Index != 0 {
		t.Errorf("invariant: got %+v, want initial violation", v)
	}
	if v := Invariant(trace(2, 1), ge(2)); v == nil {
		t.Error("invariant: want stability violation")
	}
	if v := Invariant(nil, ge(2)); v != nil {
		t.Error("invariant on empty trace should hold")
	}
}

func TestLeadsTo(t *testing.T) {
	// every 1 is followed by a 9
	tr := trace(1, 0, 9, 1, 9)
	if v := LeadsTo(tr, eq(1), eq(9)); v != nil {
		t.Errorf("leads-to violated: %v", v)
	}
	// q at the same position counts
	if v := LeadsTo(trace(9), eq(9), eq(9)); v != nil {
		t.Errorf("leads-to same-state violated: %v", v)
	}
	// open obligation at end is a violation
	v := LeadsTo(trace(0, 1, 0), eq(1), eq(9))
	if v == nil || v.Index != 1 {
		t.Errorf("leads-to: got %+v, want violation at 1", v)
	}
}

func TestLeadsToAlways(t *testing.T) {
	// p=s==1 leads to always s>=9
	if v := LeadsToAlways(trace(0, 1, 9, 10, 11), eq(1), ge(9)); v != nil {
		t.Errorf("↪ violated: %v", v)
	}
	// q not stable
	if v := LeadsToAlways(trace(1, 9, 0), eq(1), ge(9)); v == nil {
		t.Error("↪: want stability violation")
	}
	// p never satisfied within trace
	if v := LeadsToAlways(trace(0, 1, 0), eq(1), ge(9)); v == nil {
		t.Error("↪: want leads-to violation")
	}
}

func TestEventuallyAlways(t *testing.T) {
	start, v := EventuallyAlways(trace(0, 5, 0, 7, 8, 9), ge(7))
	if v != nil || start != 3 {
		t.Errorf("◇□: start=%d v=%v, want start=3", start, v)
	}
	_, v = EventuallyAlways(trace(7, 0), ge(7))
	if v == nil {
		t.Error("◇□: want violation when final state falsifies p")
	}
	start, v = EventuallyAlways(nil, ge(0))
	if v != nil || start != 0 {
		t.Error("◇□ on empty trace should hold")
	}
	// p everywhere: suffix starts at 0
	start, v = EventuallyAlways(trace(8, 9), ge(7))
	if v != nil || start != 0 {
		t.Errorf("◇□ everywhere: start=%d v=%v", start, v)
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
		want := Unless(tr, p, q)
		m := NewUnless("t", p, q)
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
		want := LeadsTo(tr, p, q)
		m := NewLeadsTo("t", p, q)
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
	m := NewInvariant("ge2", ge(2))
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

	m2 := NewInvariant("ge2", ge(2))
	m2.Observe(3)
	m2.Observe(4)
	if v := m2.Observe(1); v == nil {
		t.Error("stability break not reported")
	}
}

func TestUnlessMonitorNonLatching(t *testing.T) {
	// Two separate bad transitions must both report.
	m := NewUnless("t", eq(2), ge(5))
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
	m := NewLeadsTo("req", eq(1), eq(9))
	m.Observe(1)
	m.Observe(1)
	if m.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", m.Pending())
	}
	if m.OpenSince() != 0 {
		t.Errorf("OpenSince = %d, want 0", m.OpenSince())
	}
	m.Observe(9)
	if m.Pending() != 0 || m.Discharged() != 2 {
		t.Errorf("after q: pending=%d discharged=%d", m.Pending(), m.Discharged())
	}
	if v := m.Finish(); v != nil {
		t.Errorf("Finish: %v", v)
	}
}

func TestSuite(t *testing.T) {
	su := NewSuite[int](NewStable("nonneg", ge(0)))
	su.Add(NewInvariant("even", func(s int) bool { return even(s) }))
	lt := NewLeadsTo("one-to-two", eq(1), eq(2))
	su.Add(lt)
	for _, s := range trace(0, 2, 4, 1, 2) {
		su.Observe(s)
	}
	// "even" is violated at state 1 (index 3).
	vs := su.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %d (%v), want 1", len(vs), vs)
	}
	if su.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", su.Pending())
	}
}

// Property: stable(p) over a monotone trace holds for any upward-closed p.
func TestStableMonotoneProperty(t *testing.T) {
	f := func(seed int64, thr uint8) bool {
		rng := seeded.New(seed)
		tr := make([]int, 50)
		v := 0
		for i := range tr {
			v += rng.Intn(3)
			tr[i] = v
		}
		return Stable(tr, ge(int(thr%20))) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
