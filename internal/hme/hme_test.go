package hme

import (
	"slices"
	"sync"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/seeded"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

func TestCanonicalize(t *testing.T) {
	var a Acq
	a.Reset(0, []int{3, 1, 3, 0, 1})
	if !slices.Equal(a.Set(), []int{0, 1, 3}) {
		t.Fatalf("canonical set = %v, want [0 1 3]", a.Set())
	}
}

// newAcq is the reference acquisition Reset is held to: a new Acq by
// client of a sorted, deduplicated copy of shards.
func newAcq(client int, shards []int) *Acq {
	set := slices.Clone(shards)
	slices.Sort(set)
	return &Acq{client: client, set: slices.Compact(set)}
}

func TestAcqAscendingOrder(t *testing.T) {
	a := newAcq(7, []int{2, 0, 2, 1})
	want := []int{0, 1, 2}
	for i, s := range want {
		shard, ok := a.Pending()
		if !ok || shard != s {
			t.Fatalf("step %d: pending = %d,%v, want %d,true", i, shard, ok, s)
		}
		if err := a.Grant(shard); err != nil {
			t.Fatalf("Grant(%d): %v", shard, err)
		}
		if !slices.Equal(a.Held(), want[:i+1]) {
			t.Fatalf("step %d: held = %v", i, a.Held())
		}
	}
	if !a.Done() {
		t.Fatal("acquisition not done after all grants")
	}
	if err := a.Grant(0); err == nil {
		t.Fatal("grant after completion did not error")
	}
}

// TestAcqResetEqualsNewAcq: one Acq reused through Reset is, after every
// reset, the acquisition newAcq builds, over random shard lists with
// unsorted entries and duplicates, sets shorter than an earlier one, and
// resets in the middle of an acquisition; and Reset leaves its input alone.
func TestAcqResetEqualsNewAcq(t *testing.T) {
	rng := seeded.New(1)
	var reused Acq
	for i := 0; i < 500; i++ {
		shards := make([]int, rng.Intn(7)) // 0..6 entries, so sets shrink and grow
		for k := range shards {
			shards[k] = rng.Intn(5) // duplicates are common
		}
		input := slices.Clone(shards)
		reused.Reset(i, shards)
		fresh := newAcq(i, shards)
		if !slices.Equal(shards, input) {
			t.Fatalf("Reset modified its input: %v, was %v", shards, input)
		}
		for {
			if reused.client != fresh.client || !slices.Equal(reused.Set(), fresh.Set()) ||
				!slices.Equal(reused.Held(), fresh.Held()) || reused.Done() != fresh.Done() {
				t.Fatalf("reset %d of %v: reused (client %d, set %v, held %v, done %v), newAcq (client %d, set %v, held %v, done %v)",
					i, input, reused.client, reused.Set(), reused.Held(), reused.Done(),
					fresh.client, fresh.Set(), fresh.Held(), fresh.Done())
			}
			shard, ok := fresh.Pending()
			if got, gotOK := reused.Pending(); got != shard || gotOK != ok {
				t.Fatalf("reset %d of %v: pending %d,%v, newAcq %d,%v", i, input, got, gotOK, shard, ok)
			}
			if !ok || rng.Intn(4) == 0 { // sometimes reset mid-acquisition
				break
			}
			if err := reused.Grant(shard); err != nil {
				t.Fatal(err)
			}
			if err := fresh.Grant(shard); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestAcqRejectsOutOfOrderGrant(t *testing.T) {
	a := newAcq(1, []int{0, 2})
	if err := a.Grant(2); err == nil {
		t.Fatal("out-of-order grant accepted")
	}
}

func TestMonitorCountsAndOrder(t *testing.T) {
	r := obs.NewRegistry()
	m := NewMonitor(r)
	m.Observe(OpAcquire, 1, 0, []int{0, 2, 3})
	m.Observe(OpGrant, 1, 0, nil)
	m.Observe(OpGrant, 1, 2, nil)
	m.Observe(OpGrant, 1, 3, nil)
	if m.InFlight() != 1 {
		t.Fatalf("InFlight = %d, want 1", m.InFlight())
	}
	m.Observe(OpRelease, 1, 0, nil)
	if m.InFlight() != 0 {
		t.Fatalf("InFlight after release = %d, want 0", m.InFlight())
	}

	// A descending grant is an order violation.
	m.Observe(OpAcquire, 2, 0, []int{1, 4})
	m.Observe(OpGrant, 2, 4, nil)
	m.Observe(OpGrant, 2, 1, nil)

	s := r.Snapshot()
	checks := map[string]int64{
		"hme_acquisitions_total":     2,
		"hme_grants_total":           5,
		"hme_releases_total":         1,
		"hme_order_violations_total": 1,
	}
	for name, want := range checks {
		if got := s.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := s.Gauge("hme_max_set", 0); got != 3 {
		t.Errorf("hme_max_set = %d, want 3", got)
	}
}

func TestMonitorAudit(t *testing.T) {
	r := obs.NewRegistry()
	m := NewMonitor(r)
	m.Observe(OpAcquire, 0, 0, []int{1, 2})
	m.Observe(OpGrant, 0, 1, nil)
	m.Observe(OpGrant, 0, 2, nil)
	m.Audit(0, nil, func(shard int) tme.Phase {
		if shard == 2 {
			return tme.Hungry // scrambled: held but not eating
		}
		return tme.Eating
	})
	if got := r.Snapshot().Counter("hme_audit_violations_total"); got != 1 {
		t.Fatalf("audit violations = %d, want 1", got)
	}
}

// TestMonitorConcurrentMultiShard drives one monitor from many goroutines —
// the sharded substrate's shape, where per-core loops race grants for
// different clients into the shared monitor. Run under -race this is the
// regression test for the Monitor's internal locking; it also pins the
// exact violation counts, which must stay deterministic because each
// client's own op stream is sequential even when clients interleave.
func TestMonitorConcurrentMultiShard(t *testing.T) {
	const (
		clients = 8
		rounds  = 50
	)
	r := obs.NewRegistry()
	m := NewMonitor(r)

	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			set := []int{c % 4, c%4 + 2, c%4 + 4} // overlapping multi-shard sets
			var scratch []int                     // this goroutine's Audit buffer
			for round := range rounds {
				m.Observe(OpAcquire, c, 0, set)
				if c == 0 && round%10 == 0 {
					// Client 0 misbehaves every 10th round: grants arrive
					// descending, each a separate order violation.
					m.Observe(OpGrant, c, set[2], nil)
					m.Observe(OpGrant, c, set[1], nil)
					m.Observe(OpGrant, c, set[0], nil)
				} else {
					for _, s := range set {
						m.Observe(OpGrant, c, s, nil)
					}
				}
				// Audit while holding: client 1 always sees one scrambled
				// phase, everyone else audits clean.
				scratch = m.Audit(c, scratch, func(shard int) tme.Phase {
					if c == 1 && shard == set[0] {
						return tme.Hungry
					}
					return tme.Eating
				})
				m.Observe(OpRelease, c, 0, nil)
			}
		}()
	}
	wg.Wait()

	if got := m.InFlight(); got != 0 {
		t.Errorf("InFlight at quiescence = %d, want 0", got)
	}
	s := r.Snapshot()
	checks := map[string]int64{
		"hme_acquisitions_total": clients * rounds,
		"hme_grants_total":       clients * rounds * 3,
		"hme_releases_total":     clients * rounds,
		// Client 0's 5 descending rounds: shard c+4 then c+2 then c, two
		// backwards grants each.
		"hme_order_violations_total": 2 * (rounds / 10),
		// Client 1's every round: one held shard not Eating.
		"hme_audit_violations_total": rounds,
	}
	for name, want := range checks {
		if got := s.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := s.Gauge("hme_max_set", 0); got != 3 {
		t.Errorf("hme_max_set = %d, want 3", got)
	}
}

func TestNilMonitorIsNoOp(t *testing.T) {
	var m *Monitor
	m.Observe(OpAcquire, 0, 0, nil)
	m.Observe(OpGrant, 0, 0, nil)
	m.Audit(0, nil, nil)
	if m.InFlight() != 0 {
		t.Fatal("nil monitor reports in-flight work")
	}
}

// cycle runs one hierarchical acquisition of shards by client through a and
// m, the sharded coordinator's order: acquire, grant shard by shard, audit
// the held set, release. It returns the audit scratch for the next cycle.
func cycle(t *testing.T, m *Monitor, a *Acq, client int, shards, scratch []int) []int {
	a.Reset(client, shards)
	m.Observe(OpAcquire, client, 0, a.Set())
	for {
		s, ok := a.Pending()
		if !ok {
			break
		}
		m.Observe(OpGrant, client, s, nil)
		if err := a.Grant(s); err != nil {
			t.Fatal(err)
		}
	}
	scratch = m.Audit(client, scratch, func(int) tme.Phase { return tme.Eating })
	m.Observe(OpRelease, client, 0, nil)
	return scratch
}

// TestAcquireGrantAuditReleaseAllocatesNothing: a reused Acq and monitor,
// with the caller's audit scratch kept, allocate in a client's first cycle
// only; and with the sets NewAcqs and Reserve carve up front, not even
// there, for any client.
func TestAcquireGrantAuditReleaseAllocatesNothing(t *testing.T) {
	shards := []int{3, 1}
	t.Run("reused after the first cycle", func(t *testing.T) {
		m := NewMonitor(obs.NewRegistry())
		var a Acq
		var scratch []int
		allocs := testing.AllocsPerRun(100, func() { scratch = cycle(t, m, &a, 0, shards, scratch) })
		if allocs != 0 {
			t.Fatalf("a reused cycle allocates %.1f times, want 0", allocs)
		}
	})
	t.Run("reserved from the first cycle", func(t *testing.T) {
		const runs = 100
		clients := runs + 1 // AllocsPerRun warms up with one extra call
		m := NewMonitor(obs.NewRegistry())
		m.Reserve(clients, len(shards))
		acqs := NewAcqs(clients, len(shards))
		scratch := make([]int, 0, len(shards))
		c := 0
		allocs := testing.AllocsPerRun(runs, func() { // each run is a new client's first cycle
			scratch = cycle(t, m, &acqs[c], c, shards, scratch)
			c++
		})
		if allocs != 0 {
			t.Fatalf("a reserved client's first cycle allocates %.1f times, want 0", allocs)
		}
	})
}

// TestAuditConcurrentClients pins Audit's concurrency contract: two
// goroutines, each driving its own client with its own scratch, audit
// through one monitor while the other's grants and releases change the
// held sets. Under -race (make test-race) a shared audit buffer would be a
// reported race; the counts must be exact either way.
func TestAuditConcurrentClients(t *testing.T) {
	const rounds = 200
	r := obs.NewRegistry()
	m := NewMonitor(r)
	m.Reserve(2, 2)
	var wg sync.WaitGroup
	for c := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var a Acq
			var scratch []int
			for range rounds {
				a.Reset(c, []int{c, c + 2})
				m.Observe(OpAcquire, c, 0, a.Set())
				for !a.Done() {
					s, _ := a.Pending()
					m.Observe(OpGrant, c, s, nil)
					if err := a.Grant(s); err != nil {
						t.Error(err)
						return
					}
				}
				// Client 1 sees its second shard scrambled every round.
				scratch = m.Audit(c, scratch, func(shard int) tme.Phase {
					if c == 1 && shard == 3 {
						return tme.Hungry
					}
					return tme.Eating
				})
				if !slices.Equal(scratch, []int{c, c + 2}) {
					t.Errorf("client %d audited %v, holds [%d %d]", c, scratch, c, c+2)
					return
				}
				m.Observe(OpRelease, c, 0, nil)
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Counter("hme_audit_violations_total"); got != rounds {
		t.Errorf("audit violations = %d, want %d", got, rounds)
	}
	if got := m.InFlight(); got != 0 {
		t.Errorf("InFlight at quiescence = %d, want 0", got)
	}
}
