// Sharded simulation: S independent single-shard TME instances — each its
// own Sim with its own engine core, seed streams, W' wrappers, and obs —
// advanced in lockstep windows between deterministic merge barriers by an
// engine.Group, under a coordinator that steps one workload.Driver per
// logical client: the same client the single-shard simulator and the live
// cluster step. Everything runs on the caller's goroutine: a window is the
// shard cores run one after another in shard order (engine/group.go says
// why they are not run concurrently).
//
// The split is what keeps the shards independent. Inside a barrier window
// the shard cores share nothing: protocol events, deliveries, and W'
// deadlines are all shard-local, and the entry/release hooks write only to a
// per-shard harvest buffer. Everything cross-shard — stepping the clients,
// routing their requests to a shard and their releases to every shard of
// their lock set, serving parked requests — happens between windows, in
// canonical shard order. A run is therefore a pure function of the seed,
// and of nothing the scheduler or GOMAXPROCS decides.
//
// The shard instances are advanced through their cores, never through
// Sim.Run, so Sharded.Run publishes each shard's sim_* counters before it
// returns (see the counter contract in sim.go).
//
// Clients are multiplexed onto home nodes (client c lives on node c mod N
// of every shard), so a 100-node system can carry 10k+ clients. A client's
// Driver sees the coordinator's view of its phase: Hungry while its
// request is parked (its home node is serving another client on that
// shard) or has not run yet, the node's phase once it has, Eating from its
// harvested entry on. Parked requests are linked-list records recycled
// through an engine.Pool, keeping the coordinator allocation-free in
// steady state. Cross-shard lock sets are the Driver's, acquired in
// ascending order and observed by the hme.Monitor on the coordinator's obs.
package sim

import (
	"fmt"

	"github.com/graybox-stabilization/graybox/internal/engine"
	"github.com/graybox-stabilization/graybox/internal/hme"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/seeded"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/workload"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// ShardedConfig parameterizes a sharded simulation. Shards, N, NewNode,
// and NewClient are required.
type ShardedConfig struct {
	// Shards is the number of independent single-CS instances (S ≥ 1).
	Shards int
	// N is the number of processes; every shard runs an instance over all
	// N of them.
	N int
	// Clients is the number of logical clients, multiplexed onto home nodes
	// (client c → node c mod N). Default N.
	Clients int
	// Seed drives every draw; shard s derives its own seed from it.
	Seed int64
	// NewNode constructs process id of n for one shard instance (required).
	NewNode func(id, n int) tme.Node
	// NewWrapper, when non-nil, attaches a level-2 W' to each process of
	// each shard — per-shard wrappers, the first level of the hierarchy.
	NewWrapper func(shard, id int) wrapper.Level2
	// Level1 is the level-1 wrapper shared by every shard instance. Shard
	// instances take Config's default link delays.
	Level1 wrapper.Level1
	// NewClient constructs logical client c's draw stream (required).
	NewClient func(client int) workload.Client
	// MaxLoops caps the lock sets each client starts, its Driver's budget
	// (0 = unlimited, run to the horizon). Where no fault wipes a request,
	// that is its completed request/hold/release loops.
	MaxLoops int
	// CrossEvery makes every k-th lock set of each client two skew-drawn
	// shards, acquired in ascending order (0 = never).
	CrossEvery int
	// Obs is the coordinator-level bundle: hme monitor instruments and
	// per-client fairness. Per-shard metrics live on the shard obs.
	Obs *obs.Obs
	// NewShardObs, when non-nil, supplies each shard instance's obs bundle
	// (per-shard fairness percentiles, convergence, message counters).
	NewShardObs func(shard int) *obs.Obs
}

func (c *ShardedConfig) withDefaults() ShardedConfig {
	out := *c
	if out.Clients <= 0 {
		out.Clients = out.N
	}
	return out
}

// window is the barrier window length in virtual ticks. Clients are
// admitted and cross-shard handoffs made at window granularity — the cost
// of giving every shard its own clock.
const window int64 = 64

// hookRec is one harvested shard event, buffered shard-locally during the
// window and drained at the barrier.
type hookRec struct {
	op   uint8 // opEntry or opRelease
	node int32
	t    int64
}

const (
	opEntry uint8 = iota
	opRelease
)

// parked is one client request waiting for its home node to free up on a
// shard; recycled through the coordinator's pool.
type parked struct {
	client int
	at     int64 // when the client asked
	next   *parked
}

// nodeSlot is the coordinator's bookkeeping for one (shard, node) pair: the
// client the node serves on that shard and the requests parked behind it.
type nodeSlot struct {
	occ     int   // client being served, -1 when free
	entered bool  // the occupant's CS entry has been seen
	at      int64 // when the occupant asked: its fairness latency runs from here
	sent    int64 // coordinator time its request went to the shard core
	qh, qt  *parked
}

// wake is one heap element: a thinking client's Driver deadline.
type wake struct {
	at     int64
	client int32
}

// Sharded is a sharded simulation. Construct with NewSharded, then Run.
type Sharded struct {
	cfg     ShardedConfig
	sims    []*Sim
	group   *engine.Group
	monitor *hme.Monitor
	fair    *obs.Fairness
	drivers []workload.Driver // one per logical client
	audit   []int             // the monitor's Audit scratch
	slots   [][]nodeSlot      // [shard][node]
	bufs    [][]hookRec       // per-shard harvest buffers
	heap    []wake            // min-heap of thinking clients' wakes, ordered by (at, client)
	pool    engine.Pool[parked]
	loops   int // completed loops, all clients
	done    int // clients whose Driver parked
	now     int64
	events  int64
}

// NewSharded constructs a sharded simulation. Like New, it panics only on
// missing required fields.
func NewSharded(cfg ShardedConfig) *Sharded {
	if cfg.Shards < 1 || cfg.N < 1 || cfg.NewNode == nil || cfg.NewClient == nil {
		panic("sim: ShardedConfig.Shards, N, NewNode, and NewClient are required")
	}
	c := cfg.withDefaults()
	sh := &Sharded{
		cfg:     c,
		sims:    make([]*Sim, c.Shards),
		monitor: hme.NewMonitor(registryOf(c.Obs)),
		drivers: make([]workload.Driver, c.Clients),
		slots:   make([][]nodeSlot, c.Shards),
		bufs:    make([][]hookRec, c.Shards),
	}
	if c.Obs != nil {
		sh.fair = c.Obs.Fairness()
	}
	sh.monitor.Reserve(c.Clients, workload.MaxLockSet)
	cores := make([]*engine.Core, c.Shards)
	for s := 0; s < c.Shards; s++ {
		s := s
		var shardObs *obs.Obs
		if c.NewShardObs != nil {
			shardObs = c.NewShardObs(s)
		}
		var newWrap func(id int) wrapper.Level2
		if c.NewWrapper != nil {
			newWrap = func(id int) wrapper.Level2 { return c.NewWrapper(s, id) }
		}
		sim := New(Config{
			N:          c.N,
			Seed:       shardSeed(c.Seed, s),
			NewNode:    c.NewNode,
			NewWrapper: newWrap,
			Level1:     c.Level1,
			Obs:        shardObs,
		})
		sim.SetEntryHook(func(node int, t int64) {
			sh.bufs[s] = append(sh.bufs[s], hookRec{op: opEntry, node: int32(node), t: t})
		})
		sim.SetReleaseHook(func(node int, t int64) {
			sh.bufs[s] = append(sh.bufs[s], hookRec{op: opRelease, node: int32(node), t: t})
		})
		sh.sims[s] = sim
		cores[s] = sim.Core()
		sh.slots[s] = make([]nodeSlot, c.N)
		for i := range sh.slots[s] {
			sh.slots[s][i].occ = -1
		}
	}
	sh.group = engine.NewGroup(cores)
	for cid := range sh.drivers {
		sh.drivers[cid] = workload.NewDriver(c.NewClient(cid), c.Shards, c.CrossEvery, c.MaxLoops, 1, 0)
		sh.step(cid, 0, tme.Thinking) // arms the first think
	}
	return sh
}

func registryOf(o *obs.Obs) *obs.Registry {
	if o == nil {
		return nil
	}
	return o.Registry()
}

// shardSeed derives shard s's seed from the run seed (FNV-1a over the
// shard id), the named-stream scheme of seeded.Derive, so shard instances
// are independent pure functions of (seed, shard).
func shardSeed(seed int64, s int) int64 {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(s) >> (8 * i))
	}
	return seed ^ int64(seeded.Extend(seeded.Hash("shard/"), b[:]))
}

// Shard returns shard s's underlying Sim (its nodes, metrics, obs, and At
// hook for per-shard fault injection).
func (sh *Sharded) Shard(s int) *Sim { return sh.sims[s] }

// Monitor returns the level-2 hme monitor (nil without coordinator obs).
func (sh *Sharded) Monitor() *hme.Monitor { return sh.monitor }

// Events returns total events processed across all shards.
func (sh *Sharded) Events() int64 { return sh.events }

// LoopsDone returns how many clients have finished their loop budget.
func (sh *Sharded) LoopsDone() int { return sh.done }

// Loops returns the loops completed across all clients: lock sets
// acquired, held and released.
func (sh *Sharded) Loops() int { return sh.loops }

// Run advances the system to the horizon (or until every client finishes
// its loop budget) in barrier windows and returns the events processed.
func (sh *Sharded) Run(horizon int64) int64 {
	start := sh.events
	for sh.now < horizon && sh.done < len(sh.drivers) {
		end := sh.now + window
		if end > horizon {
			end = horizon
		}
		sh.serialPhase(sh.now, end)
		sh.events += sh.group.RunBarrier(end)
		sh.now = end
		sh.harvest(end)
		sh.skipAhead(horizon)
	}
	for _, s := range sh.sims {
		s.publish()
	}
	sh.fair.Publish()
	return sh.events - start
}

// serialPhase steps the clients whose think ends in (start, end], then
// looks at every slot for what a fault wrote behind the coordinator's back.
// Runs with every shard core quiescent at time start.
func (sh *Sharded) serialPhase(start, end int64) {
	for len(sh.heap) > 0 && sh.heap[0].at <= end {
		w := sh.popWake()
		sh.step(int(w.client), max(w.at, start), tme.Thinking)
	}
	for s := range sh.slots {
		for i := range sh.slots[s] {
			sl := &sh.slots[s][i]
			if sl.occ >= 0 && (sl.entered || sl.sent == start) {
				continue // eating, or its request has not run yet
			}
			ph := sh.sims[s].Node(i).Phase()
			switch {
			case sl.occ < 0:
				// A corruption can forge Eating on a node nobody occupies.
				// No client watches this slot, so none would release it, and
				// one forged eater starves its whole shard: release it here.
				if ph == tme.Eating {
					sh.sims[s].ReleaseAt(start, i)
				}
			case ph == tme.Eating:
				// Eating with no entry seen: a corruption forged it, and the
				// occupant takes it for its grant.
				sh.entered(s, i, start)
			case ph != tme.Hungry:
				// The occupant's request is gone: its slot frees, and its
				// Driver decides how to ask again.
				c := sl.occ
				sh.vacate(s, i, start)
				sh.step(c, start, ph)
			}
		}
	}
}

// step hands client c's Driver the time and the phase it sees and carries
// out what it asks, as events on the shard cores at the client's home node.
// The coordinator learns what a request or a release did only at a
// barrier, so after either the Driver waits for a harvested entry or
// release, or for the slot scan, to step it again.
func (sh *Sharded) step(c int, now int64, ph tme.Phase) {
	d := &sh.drivers[c]
	i := c % sh.cfg.N
	for {
		switch d.Step(now, ph) {
		case workload.ActRequest:
			if len(d.Set()) > 1 && len(d.Held()) == 0 {
				sh.monitor.Observe(hme.OpAcquire, c, 0, d.Set())
			}
			sh.request(c, d.Shard(), now)
			return
		case workload.ActSleep:
			if len(d.Held()) == 0 {
				sh.pushWake(wake{at: d.Wake(), client: int32(c)})
				return
			}
			// The whole set is held: audit it, then step the Driver at its
			// hold's end right away. The shard cores carry out the release
			// at that time, and its harvest steps the Driver next.
			if len(d.Set()) > 1 {
				sh.audit = sh.monitor.Audit(c, sh.audit, func(shard int) tme.Phase { return sh.sims[shard].Node(i).Phase() })
			}
			now, ph = d.Wake(), tme.Eating
		case workload.ActRelease:
			for _, s := range d.Set() {
				if sl := &sh.slots[s][i]; sl.occ == c && sl.entered {
					sh.sims[s].ReleaseAt(now, i)
				}
			}
			return
		case workload.ActPark:
			sh.done++
			return
		case workload.ActIdle, workload.ActAwait:
			return
		}
	}
}

// request routes client c's request for one shard, made at time at, to its
// home node: issue it when the node is free on that shard, park it
// otherwise.
func (sh *Sharded) request(c, shard int, at int64) {
	i := c % sh.cfg.N
	sl := &sh.slots[shard][i]
	if sl.occ < 0 {
		sh.occupy(shard, i, c, at, at)
		return
	}
	rec := sh.pool.Get()
	rec.client, rec.at, rec.next = c, at, nil
	if sl.qt != nil {
		sl.qt.next = rec
	} else {
		sl.qh = rec
	}
	sl.qt = rec
}

// occupy gives slot (s, i) to client c, who asked at time asked, and
// issues its request at time t.
func (sh *Sharded) occupy(s, i, c int, asked, t int64) {
	sl := &sh.slots[s][i]
	sl.occ, sl.entered, sl.at, sl.sent = c, false, asked, sh.now
	sh.sims[s].RequestAt(t, i)
}

// vacate frees slot (s, i) at time t and serves the request parked longest
// behind it.
func (sh *Sharded) vacate(s, i int, t int64) {
	sl := &sh.slots[s][i]
	sl.occ, sl.entered = -1, false
	if rec := sl.qh; rec != nil {
		sl.qh = rec.next
		if sl.qh == nil {
			sl.qt = nil
		}
		sh.occupy(s, i, rec.client, rec.at, t)
		sh.pool.Put(rec)
	}
}

// harvest drains every shard's hook buffer, serially in shard order, and
// steps the clients the events belong to. Runs at the barrier (time end).
func (sh *Sharded) harvest(end int64) {
	for s := range sh.bufs {
		for k := range sh.bufs[s] {
			r := sh.bufs[s][k]
			if r.op == opEntry {
				sh.entered(s, int(r.node), r.t)
			} else {
				sh.released(s, int(r.node), r.t)
			}
		}
		sh.bufs[s] = sh.bufs[s][:0]
	}
}

// entered handles a CS entry of node i on shard s at time t: the occupant
// holds that shard, and its Driver sees Eating.
func (sh *Sharded) entered(s, i int, t int64) {
	sl := &sh.slots[s][i]
	c := sl.occ
	if c < 0 || sl.entered {
		return // spurious: a corruption forged the phase with nobody served
	}
	sl.entered = true
	d := &sh.drivers[c]
	if len(d.Held()) == 0 {
		sh.fair.RecordEntry(c, t-sl.at)
	}
	if len(d.Set()) > 1 {
		sh.monitor.Observe(hme.OpGrant, c, s, nil)
	}
	sh.step(c, t, tme.Eating)
}

// released handles a release event of node i on shard s at time t: the
// slot frees and serves its next parked request, and the release that
// frees the last shard of a held set ends that client's loop.
func (sh *Sharded) released(s, i int, t int64) {
	sl := &sh.slots[s][i]
	c, ate := sl.occ, sl.entered
	if c < 0 {
		return
	}
	sh.vacate(s, i, t)
	d := &sh.drivers[c]
	if !ate || len(d.Held()) > 0 {
		return // not the release of a held set
	}
	for _, o := range d.Set() {
		if sh.slots[o][i].occ == c {
			return // more of the set to release
		}
	}
	if len(d.Set()) > 1 {
		sh.monitor.Observe(hme.OpRelease, c, 0, nil)
	}
	sh.loops++
	sh.step(c, t, tme.Thinking)
}

// skipAhead fast-forwards over windows in which no shard has events and no
// client wakes, using the group's virtual-clock low-water-mark.
func (sh *Sharded) skipAhead(horizon int64) {
	next := int64(-1)
	if low, ok := sh.group.LowWater(); ok {
		next = low
	}
	if len(sh.heap) > 0 && (next < 0 || sh.heap[0].at < next) {
		next = sh.heap[0].at
	}
	if next < 0 || next <= sh.now+window {
		return
	}
	if next > horizon {
		next = horizon
	}
	// Land the interesting time inside the next window.
	sh.now += (next - sh.now - 1) / window * window
	for _, s := range sh.sims {
		// Advance quiescent cores so RequestAt/ReleaseAt clamp correctly.
		s.core.Run(sh.now)
	}
}

// String summarizes the run for logs.
func (sh *Sharded) String() string {
	return fmt.Sprintf("sharded{s=%d n=%d c=%d t=%d loops=%d done=%d}",
		sh.cfg.Shards, sh.cfg.N, len(sh.drivers), sh.now, sh.loops, sh.done)
}

// Wake heap: a plain binary min-heap ordered by (at, client) — the
// coordinator's only scheduling structure, kept dependency-free like the
// engine's overflow heap.

func (sh *Sharded) pushWake(w wake) {
	sh.heap = append(sh.heap, w)
	i := len(sh.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !wakeLess(sh.heap[i], sh.heap[p]) {
			break
		}
		sh.heap[i], sh.heap[p] = sh.heap[p], sh.heap[i]
		i = p
	}
}

func (sh *Sharded) popWake() wake {
	h := sh.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	sh.heap = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && wakeLess(h[l], h[small]) {
			small = l
		}
		if r < last && wakeLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

func wakeLess(a, b wake) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.client < b.client
}
