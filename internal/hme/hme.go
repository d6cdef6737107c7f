// Package hme is the hierarchical mutual-exclusion layer: a level-2
// "wrapper of wrappers" that grants cross-shard acquisitions on top of S
// independent single-shard TME instances, each already stabilized by its
// own W'.
//
// The design mirrors the paper's wrapper discipline one level up. A
// single-shard instance exports only its Lspec-level view (tme.SpecView);
// this package sees only shard ids and those views — never protocol
// internals and never a substrate — so the graybox rule holds at level 2
// exactly as it does at level 1. Deadlock freedom needs no timestamps at
// this level: every multi-shard lock set is acquired in canonical
// ascending shard order, so the waits-for relation is a sub-order of the
// shard order and cannot cycle (the classic ordered-resource argument).
// Liveness of each single acquisition is delegated downward: each shard's
// W' guarantees the hungry client eventually eats on that shard.
//
// The Monitor is the level-2 analogue of the Lspec monitors: a spec-only
// observer that checks the ordering invariant on every grant, audits that
// held shards actually show the Eating phase, and publishes hme_* obs
// instruments (acquisitions, grants, releases, violations, in-flight
// depth) for the harness's shard-scale experiment.
package hme

import (
	"fmt"
	"slices"
	"sync"

	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

// Op discriminates the hierarchical-acquisition vocabulary the monitor
// observes: one acquire per lock set, one grant per shard, one release for
// the whole set.
type Op int

// Hierarchical ops. They start at one so a zero value is detectably
// invalid, matching the repo's kind conventions; switches over them must
// name every op or route the rest through an explicit default.
//
//gblint:kindset hme-msg
const (
	OpAcquire Op = iota + 1
	OpGrant
	OpRelease
)

// String renders the op name.
func (o Op) String() string {
	switch o {
	case OpAcquire:
		return "acquire"
	case OpGrant:
		return "grant"
	case OpRelease:
		return "release"
	default:
		return fmt.Sprintf("invalid(%d)", int(o))
	}
}

// Acq is one in-flight cross-shard acquisition: a client working through
// its canonical lock set one shard at a time. The substrate drives it —
// request Pending()'s shard on the level-1 instance, report the CS entry
// with Grant, repeat until Done, then hold all shards and release them
// together.
type Acq struct {
	client int
	set    []int
	next   int
}

// Reset turns a into a fresh acquisition of the given shards by client. It
// canonicalizes them into a's own set: sorted ascending with duplicates
// dropped, the canonical acquisition order that makes cross-shard lock sets
// deadlock-free. A driver reusing one Acq per client so allocates only when
// a set outgrows every earlier one. shards is not modified; slices returned
// by Set and Held before the call are overwritten.
func (a *Acq) Reset(client int, shards []int) {
	set := append(a.set[:0], shards...)
	slices.Sort(set)
	a.client, a.set, a.next = client, slices.Compact(set), 0
}

// Set returns the full canonical lock set.
func (a *Acq) Set() []int { return a.set }

// Pending returns the next shard to request, or ok=false when every shard
// in the set has been granted.
func (a *Acq) Pending() (shard int, ok bool) {
	if a.next >= len(a.set) {
		return 0, false
	}
	return a.set[a.next], true
}

// Held returns the prefix of the lock set already granted.
func (a *Acq) Held() []int { return a.set[:a.next] }

// Done reports whether the whole set is held.
func (a *Acq) Done() bool { return a.next >= len(a.set) }

// Grant records that the level-1 instance for shard admitted the client.
// Granting any shard other than the pending one is an ordering bug in the
// driver and returns an error.
func (a *Acq) Grant(shard int) error {
	want, ok := a.Pending()
	if !ok {
		return fmt.Errorf("hme: grant of shard %d after set %v complete", shard, a.set)
	}
	if shard != want {
		return fmt.Errorf("hme: grant of shard %d out of order, want %d of set %v", shard, want, a.set)
	}
	a.next++
	return nil
}

// Monitor is the level-2 spec monitor. It watches the op stream of every
// client, enforces the ascending-order invariant grant by grant, and
// publishes the hme_* instruments. All methods are no-ops on a nil
// receiver, matching the obs discipline. Methods are safe for concurrent
// use, so clients that run on their own goroutines can share one monitor;
// the sharded simulator's coordinator happens to call it from one.
type Monitor struct {
	mu   sync.Mutex
	held map[int][]int // guarded by mu; client → shards currently held, in grant order

	acquisitions *obs.Counter
	grants       *obs.Counter
	releases     *obs.Counter
	orderViol    *obs.Counter
	auditViol    *obs.Counter
	inflight     *obs.Gauge
	maxSet       *obs.Gauge
}

// NewMonitor registers the hme instruments on r (nil r yields a nil, no-op
// monitor).
func NewMonitor(r *obs.Registry) *Monitor {
	if r == nil {
		return nil
	}
	return &Monitor{
		held:         map[int][]int{},
		acquisitions: r.Counter("hme_acquisitions_total", "cross-shard lock-set acquisitions started"),
		grants:       r.Counter("hme_grants_total", "single-shard grants inside cross-shard acquisitions"),
		releases:     r.Counter("hme_releases_total", "cross-shard lock sets released"),
		orderViol:    r.Counter("hme_order_violations_total", "grants that broke the canonical ascending shard order"),
		auditViol:    r.Counter("hme_audit_violations_total", "held shards whose spec view was not Eating at audit"),
		inflight:     r.Gauge("hme_inflight", "cross-shard acquisitions currently holding at least one shard"),
		maxSet:       r.Gauge("hme_max_set", "largest lock-set size observed"),
	}
}

// Observe feeds one op into the monitor. shard is meaningful only for
// OpGrant; for OpAcquire, set is the canonical lock set being started.
func (m *Monitor) Observe(op Op, client, shard int, set []int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch op {
	case OpAcquire:
		m.acquisitions.Inc()
		m.maxSet.SetMax(int64(len(set)))
	case OpGrant:
		m.grants.Inc()
		h := m.held[client]
		if len(h) > 0 && shard <= h[len(h)-1] {
			m.orderViol.Inc()
		}
		if len(h) == 0 {
			m.inflight.Add(1)
		}
		m.held[client] = append(h, shard)
	case OpRelease:
		m.releases.Inc()
		if len(m.held[client]) > 0 {
			m.inflight.Add(-1)
		}
		m.held[client] = m.held[client][:0]
	default:
		// Ops are produced in-process, never decoded off the wire, so an
		// unknown value is a programming error, not a fault to absorb.
		panic(fmt.Sprintf("hme: unknown op %d", int(op)))
	}
}

// InFlight returns the number of clients currently holding at least one
// shard of an incomplete-or-held lock set — zero at quiescence, which is
// the harness's deadlock-freedom check at end of run.
func (m *Monitor) InFlight() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, h := range m.held {
		if len(h) > 0 {
			n++
		}
	}
	return n
}

// Audit checks that every shard the monitor believes client holds shows
// the Eating phase in that shard's spec view — the level-2 analogue of the
// Lspec safety probe. Violations are counted, not fatal: transient faults
// can legitimately scramble a phase, and W' is what repairs it.
func (m *Monitor) Audit(client int, phase func(shard int) tme.Phase) {
	if m == nil {
		return
	}
	// Snapshot under the lock, probe outside it: phase reads the shard's
	// spec view, which must not nest inside the monitor's mutex.
	m.mu.Lock()
	held := slices.Clone(m.held[client])
	m.mu.Unlock()
	for _, s := range held {
		if phase(s) != tme.Eating {
			m.auditViol.Inc()
		}
	}
}
