// Package hme is the level-2 observer of hierarchical mutual exclusion:
// the spec monitor of cross-shard lock sets acquired on top of S
// independent single-shard TME instances, each already stabilized by its
// own W'.
//
// The acquisition itself is the client's (workload.Driver): it requests
// the shards of its set one at a time in ascending order, holds them
// together and releases them together. Deadlock freedom then needs no
// timestamps at this level: waits-for between clients is a sub-order of
// the shard order and cannot cycle (the classic ordered-resource
// argument). Liveness of each single acquisition is delegated downward:
// each shard's W' guarantees the hungry client eventually eats there.
//
// The Monitor is the level-2 analogue of the Lspec monitors, and keeps the
// graybox rule one level up: it sees only client ids, shard ids and each
// shard's Lspec-level phase (tme.SpecView), never protocol internals and
// never a substrate. It checks the ordering invariant on every grant,
// audits that held shards actually show the Eating phase, and publishes
// hme_* obs instruments (acquisitions, grants, releases, violations,
// in-flight depth) for the harness's shard-scale experiment.
package hme

import (
	"fmt"
	"maps"
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

// Monitor is the level-2 spec monitor. It watches the op stream of every
// client, enforces the ascending-order invariant grant by grant, and
// publishes the hme_* instruments. All methods are no-ops on a nil
// receiver, matching the obs discipline. Methods are safe for concurrent
// use, so clients that run on their own goroutines can share one monitor;
// the sharded simulator's coordinator happens to call it from one.
//
// A client's held set grows when its first grant arrives, unless Reserve
// gave it room up front; after that the monitor's ops do not allocate.
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

// Reserve gives clients 0..clients-1 held sets with room for setCap shards
// each, carved from one array, so that Observe allocates for none of them.
// A driver calls it once, before its clients start; sets already in use
// keep their contents.
func (m *Monitor) Reserve(clients, setCap int) {
	if m == nil {
		return
	}
	buf := make([]int, clients*setCap)
	held := make(map[int][]int, len(m.held)+clients)
	for c := 0; c < clients; c++ {
		held[c] = buf[c*setCap : c*setCap : (c+1)*setCap]
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	maps.Copy(held, m.held)
	m.held = held
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
//
// The held set is copied into scratch, the caller's own buffer, and the
// copy is returned for the caller to pass to its next Audit: a caller that
// keeps it audits without allocating, and callers on different goroutines
// share nothing but the monitor.
func (m *Monitor) Audit(client int, scratch []int, phase func(shard int) tme.Phase) []int {
	if m == nil {
		return scratch
	}
	// Snapshot under the lock, probe outside it: phase reads the shard's
	// spec view, which must not nest inside the monitor's mutex.
	m.mu.Lock()
	held := append(scratch[:0], m.held[client]...)
	m.mu.Unlock()
	for _, s := range held {
		if phase(s) != tme.Eating {
			m.auditViol.Inc()
		}
	}
	return held
}
