package spec

import (
	"fmt"
	"math/rand"
	"testing"
)

// partState is a small state of three parts, each a value in 0..3.
type partState [3]int

// scopedPair is one operator over one part, built twice: a copy for the
// suite that is told the monitor's footprint and a copy for the suite that
// is not.
type scopedPair struct {
	part  int
	build func() Monitor[partState]
}

// operatorPairs has each operator (unless, stable, invariant, leads-to,
// leads-to-not) on each part, and one invariant that reads every part. The
// per-part invariant fails while its part is 3, so it keeps failing through
// the stutters that follow.
func operatorPairs() []scopedPair {
	var ps []scopedPair
	for j := 0; j < len(partState{}); j++ {
		j := j
		is := func(v int) Predicate[partState] { return func(s partState) bool { return s[j] == v } }
		ps = append(ps,
			scopedPair{j, func() Monitor[partState] { return NewUnless(fmt.Sprintf("unless.%d", j), is(0), is(1)) }},
			scopedPair{j, func() Monitor[partState] { return NewStable(fmt.Sprintf("stable.%d", j), is(2)) }},
			scopedPair{j, func() Monitor[partState] { return NewInvariant(fmt.Sprintf("inv.%d", j), Not(is(3))) }},
			scopedPair{j, func() Monitor[partState] { return NewLeadsTo(fmt.Sprintf("leads.%d", j), is(1), is(2)) }},
			scopedPair{j, func() Monitor[partState] { return NewLeadsToNot(fmt.Sprintf("transient.%d", j), is(1)) }},
		)
	}
	ps = append(ps, scopedPair{AllParts, func() Monitor[partState] {
		return NewInvariant("sum", func(s partState) bool { return s[0]+s[1]+s[2] < 8 })
	}})
	return ps
}

// requireSameVerdicts compares everything a caller can read off the two
// suites: the violation lists in order, and the obligation accounting of
// every leads-to monitor.
func requireSameVerdicts(t *testing.T, step int, scoped, plain *Suite[partState], sm, pm []Monitor[partState]) {
	t.Helper()
	sv, pv := scoped.Violations(), plain.Violations()
	if len(sv) != len(pv) {
		t.Fatalf("step %d: %d violations scoped, %d unscoped", step, len(sv), len(pv))
	}
	for i := range sv {
		if *sv[i] != *pv[i] {
			t.Fatalf("step %d: violation %d = %+v scoped, %+v unscoped", step, i, *sv[i], *pv[i])
		}
	}
	if scoped.Pending() != plain.Pending() {
		t.Fatalf("step %d: Pending = %d scoped, %d unscoped", step, scoped.Pending(), plain.Pending())
	}
	for i := range sm {
		if sm[i].Pending() != pm[i].Pending() {
			t.Fatalf("step %d: %s Pending = %d scoped, %d unscoped",
				step, sm[i].Name(), sm[i].Pending(), pm[i].Pending())
		}
		sl, ok := sm[i].(*LeadsToMonitor[partState])
		if !ok {
			continue
		}
		pl := pm[i].(*LeadsToMonitor[partState])
		if sl.Discharged() != pl.Discharged() || sl.OpenSince() != pl.OpenSince() {
			t.Fatalf("step %d: %s discharged/openSince = %d/%d scoped, %d/%d unscoped", step, sl.Name(),
				sl.Discharged(), sl.OpenSince(), pl.Discharged(), pl.OpenSince())
		}
	}
}

// TestScopedSuiteAgreesWithUnscoped is the differential test of the skip
// rule: over seeded random walks with stutters, a suite told each monitor's
// footprint and each observation's change set must report exactly what a
// suite that evaluates every monitor on every state reports, after every
// step. The walks include a long quiet stretch entered with obligations
// open (part values 1) and with an invariant failing (a part at 3).
func TestScopedSuiteAgreesWithUnscoped(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		scoped, plain := NewSuite[partState](), NewSuite[partState]()
		var sm, pm []Monitor[partState]
		for _, p := range operatorPairs() {
			s, u := p.build(), p.build()
			scoped.AddScoped(s, p.part)
			plain.Add(u)
			sm, pm = append(sm, s), append(pm, u)
		}
		var st partState
		changed := make([]bool, len(st))
		for step := 0; step < 600; step++ {
			for j := range changed {
				changed[j] = false
			}
			switch {
			case step == 300:
				// Enter the quiet stretch with an obligation open on part 1
				// and, on odd seeds, the part-0 invariant failing.
				st[1], changed[1] = 1, true
				if seed%2 == 1 {
					st[0], changed[0] = 3, true
				}
			case step > 300 && step < 450:
				// Quiet: nothing moves.
			case rng.Intn(3) == 0:
				// A stutter.
			default:
				for n := 1 + rng.Intn(2); n > 0; n-- {
					j := rng.Intn(len(st))
					st[j], changed[j] = rng.Intn(4), true // may redraw the old value: over-marking
				}
			}
			scoped.ObserveChanged(st, changed)
			plain.Observe(st)
			requireSameVerdicts(t, step, scoped, plain, sm, pm)
		}
		if len(plain.Violations()) == 0 {
			t.Fatalf("seed %d: walk produced no violation; the test compares nothing", seed)
		}
	}
}

// TestSuiteObserveIsAllChanged pins the two ends of the one loop: Observe
// evaluates every monitor whatever its scope, and an observation in which
// nothing changed evaluates none unless one is failing.
func TestSuiteObserveIsAllChanged(t *testing.T) {
	calls := 0
	not3 := func(j int) Predicate[partState] {
		return func(s partState) bool { calls++; return s[j] != 3 }
	}
	su := NewSuite[partState]()
	su.AddScoped(NewInvariant("a", not3(0)), 0)
	su.AddScoped(NewInvariant("b", not3(2)), 2)

	su.Observe(partState{})
	su.Observe(partState{})
	if calls != 4 {
		t.Fatalf("Observe evaluated %d predicates over two states, want 4", calls)
	}
	su.ObserveChanged(partState{}, []bool{false, false, false})
	if calls != 4 {
		t.Fatalf("a quiet observation evaluated %d predicates, want 0", calls-4)
	}
	su.ObserveChanged(partState{3, 0, 0}, []bool{true, false, false})
	if calls != 5 || len(su.Violations()) != 1 {
		t.Fatalf("part 0 changed: %d evaluations, %d violations; want 1 and 1", calls-4, len(su.Violations()))
	}
	// a is failing now, so the quiet state that follows is judged by a (and
	// only a) and reported again at its own index.
	su.ObserveChanged(partState{3, 0, 0}, []bool{false, false, false})
	if vs := su.Violations(); calls != 6 || len(vs) != 2 || vs[0].Index != 3 || vs[1].Index != 4 {
		t.Fatalf("failing invariant on a quiet state: %d evaluations, violations %v", calls-5, vs)
	}
	// b, skipped for three observations, is brought up to date before it
	// judges: its violation carries the index of this state.
	su.ObserveChanged(partState{3, 0, 3}, []bool{false, false, true})
	if vs := su.Violations(); calls != 8 || len(vs) != 4 || vs[2].Index != 5 || vs[3].Index != 5 {
		t.Fatalf("part 2 changed while a fails: %d evaluations, violations %v", calls-6, vs)
	}
}
