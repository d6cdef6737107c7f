package hme

import (
	"slices"
	"sync"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

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

// cycle runs one hierarchical acquisition of set, ascending, by client
// through m in the sharded coordinator's order: acquire, grant shard by
// shard, audit the held set, release. It returns the audit scratch for the
// next cycle.
func cycle(m *Monitor, client int, set, scratch []int) []int {
	m.Observe(OpAcquire, client, 0, set)
	for _, s := range set {
		m.Observe(OpGrant, client, s, nil)
	}
	scratch = m.Audit(client, scratch, func(int) tme.Phase { return tme.Eating })
	m.Observe(OpRelease, client, 0, nil)
	return scratch
}

// TestAcquireGrantAuditReleaseAllocatesNothing: a reused monitor, with the
// caller's audit scratch kept, allocates in a client's first cycle only;
// and with the held sets Reserve carves up front, not even there, for any
// client.
func TestAcquireGrantAuditReleaseAllocatesNothing(t *testing.T) {
	set := []int{1, 3}
	t.Run("reused after the first cycle", func(t *testing.T) {
		m := NewMonitor(obs.NewRegistry())
		var scratch []int
		allocs := testing.AllocsPerRun(100, func() { scratch = cycle(m, 0, set, scratch) })
		if allocs != 0 {
			t.Fatalf("a reused cycle allocates %.1f times, want 0", allocs)
		}
	})
	t.Run("reserved from the first cycle", func(t *testing.T) {
		const runs = 100
		clients := runs + 1 // AllocsPerRun warms up with one extra call
		m := NewMonitor(obs.NewRegistry())
		m.Reserve(clients, len(set))
		scratch := make([]int, 0, len(set))
		c := 0
		allocs := testing.AllocsPerRun(runs, func() { // each run is a new client's first cycle
			scratch = cycle(m, c, set, scratch)
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
			set := []int{c, c + 2}
			var scratch []int
			for range rounds {
				m.Observe(OpAcquire, c, 0, set)
				for _, s := range set {
					m.Observe(OpGrant, c, s, nil)
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
