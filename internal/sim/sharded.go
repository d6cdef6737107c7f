// Sharded simulation: S independent single-shard TME instances — each its
// own Sim with its own engine core, seed streams, W' wrappers, and obs —
// advanced in lockstep windows between deterministic merge barriers by an
// engine.Group, under a coordinator that owns every workload decision.
// Everything runs on the caller's goroutine: a window is the shard cores
// run one after another in shard order (engine/group.go says why they are
// not run concurrently).
//
// The split is what keeps the shards independent. Inside a barrier window
// the shard cores share nothing: protocol events, deliveries, and W'
// deadlines are all shard-local, and the entry/release hooks write only to a
// per-shard harvest buffer. Everything cross-shard — admitting client
// arrivals, drawing think/hold/shard-skew values, moving hierarchical
// acquisitions to their next shard, serving parked arrivals — happens
// between windows, in canonical shard order. A run is therefore a pure
// function of the seed, and of nothing the scheduler or GOMAXPROCS decides.
//
// The shard instances are advanced through their cores, never through
// Sim.Run, so Sharded.Run publishes each shard's sim_* counters before it
// returns (see the counter contract in sim.go).
//
// Clients are logical loops multiplexed onto home nodes (client c lives on
// node c mod N of every shard), so a 100-node system can carry 10k+ client
// loops. Parked arrivals — a client whose home node is already serving
// another client on that shard — are linked-list records recycled through
// an engine.Pool, keeping the coordinator allocation-free in steady state.
// Cross-shard lock sets follow internal/hme: canonical ascending order,
// observed by the hme.Monitor on the coordinator's obs.
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
	// Clients is the number of logical client loops, multiplexed onto home
	// nodes (client c → node c mod N). Default N.
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
	// MaxLoops caps completed request/hold/release loops per client
	// (0 = unlimited, run to the horizon).
	MaxLoops int
	// CrossEvery makes every k-th loop of each client a cross-shard
	// acquisition of two skew-drawn shards (0 = never). Lock sets follow
	// hme's canonical ascending order.
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

const (
	// window is the barrier window length in virtual ticks. Cross-shard
	// handoffs and new arrivals are admitted at window granularity — the
	// cost of giving every shard its own clock.
	window int64 = 64
	// retryAfter is how long an issued request may sit unanswered before
	// the coordinator re-probes the node (re-request after a fault ate the
	// request, or synthesize the grant/release a corruption skipped).
	retryAfter int64 = 512
)

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

// parked is one client arrival waiting for its home node to free up on a
// shard; recycled through the coordinator's pool.
type parked struct {
	client int
	at     int64
	next   *parked
}

// nodeSlot is the coordinator's bookkeeping for one (shard, node) pair.
type nodeSlot struct {
	occ     int   // client being served, -1 when free
	entered bool  // the occupant's CS entry has been harvested
	reqAt   int64 // when the occupant's request was issued (for retries)
	qh, qt  *parked
	qlen    int
}

// maxLockSet is the most shards a loop draws: one, or two every
// CrossEvery-th loop. Each client's acquisition and monitor held set get
// this much room once, at construction.
const maxLockSet = 2

// clientState tracks one logical client loop; its acquisition is the
// client's entry of Sharded.acqs.
type clientState struct {
	active   bool  // a loop is in flight: the acquisition is live
	arriveAt int64 // arrival time of the current loop (latency baseline)
	relLeft  int   // shard releases outstanding before the loop completes
	recorded bool  // fairness entry recorded for this loop
	loops    int   // completed loops
	done     bool
}

// arrival is one heap element: client's next arrival time.
type arrival struct {
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
	clients []workload.Client
	cst     []clientState
	acqs    []hme.Acq    // client → the current loop's acquisition, Reset at each loop's start
	audit   []int        // the monitor's Audit scratch
	slots   [][]nodeSlot // [shard][node]
	bufs    [][]hookRec  // per-shard harvest buffers
	heap    []arrival    // min-heap of pending arrivals, ordered by (at, client)
	pool    engine.Pool[parked]
	done    int
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
		clients: make([]workload.Client, c.Clients),
		cst:     make([]clientState, c.Clients),
		acqs:    hme.NewAcqs(c.Clients, maxLockSet),
		slots:   make([][]nodeSlot, c.Shards),
		bufs:    make([][]hookRec, c.Shards),
	}
	if c.Obs != nil {
		sh.fair = c.Obs.Fairness()
	}
	sh.monitor.Reserve(c.Clients, maxLockSet)
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
	for cid := 0; cid < c.Clients; cid++ {
		sh.clients[cid] = c.NewClient(cid)
		sh.pushArrival(arrival{at: sh.clients[cid].NextThink(), client: int32(cid)})
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

// Loops returns client c's completed loop count.
func (sh *Sharded) Loops(c int) int { return sh.cst[c].loops }

// Run advances the system to the horizon (or until every client finishes
// its loop budget) in barrier windows and returns the events processed.
func (sh *Sharded) Run(horizon int64) int64 {
	start := sh.events
	for sh.now < horizon && sh.done < len(sh.clients) {
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

// serialPhase admits arrivals due in (start, end] and re-probes stuck
// requests. Runs with every shard core quiescent at time start.
func (sh *Sharded) serialPhase(start, end int64) {
	for len(sh.heap) > 0 && sh.heap[0].at <= end {
		a := sh.popArrival()
		at := a.at
		if at < start {
			at = start
		}
		sh.startLoop(int(a.client), at)
	}
	// Retry scan: a request can be eaten by a corruption fault (the phase
	// was not Thinking when the event fired, or the in-flight REQs were
	// scrambled past repair). The coordinator re-probes old occupants:
	// re-request a Thinking node, and synthesize the entry a corruption
	// skipped when the node is visibly Eating without one.
	for s := range sh.slots {
		for i := range sh.slots[s] {
			sl := &sh.slots[s][i]
			if sl.occ < 0 {
				// A corruption can forge Eating on a node nobody occupies.
				// Releases are coordinator-owned here, so no client loop will
				// ever clear it — and one forged eater starves its whole
				// shard. Force the release (the single-shard sim's
				// audit-release, hoisted to the coordinator).
				if sh.sims[s].Node(i).Phase() == tme.Eating {
					sh.sims[s].ReleaseAt(start, i)
				}
				continue
			}
			if sl.entered || start-sl.reqAt <= retryAfter {
				continue
			}
			ph := sh.sims[s].Node(i).Phase()
			if ph == tme.Eating {
				sh.handleEntry(s, i, start)
			} else if ph == tme.Thinking {
				sh.sims[s].RequestAt(start, i)
				sl.reqAt = start
			}
			// Hungry (or invalid, which level-1/W' repairs): keep waiting.
		}
	}
}

// startLoop begins client c's next loop at time at: draw the lock set from
// its skew stream and request the first shard.
func (sh *Sharded) startLoop(c int, at int64) {
	cl := sh.clients[c]
	st := &sh.cst[c]
	acq := &sh.acqs[c]
	var set [maxLockSet]int
	n := 1
	set[0] = cl.NextResource(sh.cfg.Shards)
	if sh.cfg.CrossEvery > 0 && (st.loops+1)%sh.cfg.CrossEvery == 0 {
		set[1] = cl.NextResource(sh.cfg.Shards)
		n = 2
	}
	acq.Reset(c, set[:n])
	st.active = true
	st.arriveAt = at
	st.recorded = false
	st.relLeft = 0
	if len(acq.Set()) > 1 {
		sh.monitor.Observe(hme.OpAcquire, c, 0, acq.Set())
	}
	shard, _ := acq.Pending()
	sh.requestShard(c, shard, at)
}

// requestShard routes client c's request for one shard to its home node:
// issue it when the node is free on that shard, park it otherwise.
func (sh *Sharded) requestShard(c, shard int, at int64) {
	i := c % sh.cfg.N
	sl := &sh.slots[shard][i]
	if sl.occ < 0 {
		sl.occ = c
		sl.entered = false
		sl.reqAt = at
		sh.sims[shard].RequestAt(at, i)
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
	sl.qlen++
}

// harvest drains every shard's hook buffer, serially in shard order, and
// advances the cross-shard state machines. Runs at the barrier (time end).
func (sh *Sharded) harvest(end int64) {
	for s := range sh.bufs {
		for k := range sh.bufs[s] {
			r := sh.bufs[s][k]
			if r.op == opEntry {
				sh.handleEntry(s, int(r.node), r.t)
			} else {
				sh.handleRelease(s, int(r.node), r.t)
			}
		}
		sh.bufs[s] = sh.bufs[s][:0]
	}
}

// handleEntry processes one CS entry of node i on shard s at time t.
func (sh *Sharded) handleEntry(s, i int, t int64) {
	sl := &sh.slots[s][i]
	c := sl.occ
	if c < 0 || sl.entered {
		return // spurious: a corruption forged the phase with nobody served
	}
	st := &sh.cst[c]
	if !st.active {
		return
	}
	sl.entered = true
	acq := &sh.acqs[c]
	multi := len(acq.Set()) > 1
	if !st.recorded {
		sh.fair.RecordEntry(c, t-st.arriveAt)
		st.recorded = true
	}
	if multi {
		sh.monitor.Observe(hme.OpGrant, c, s, nil)
	}
	if err := acq.Grant(s); err != nil {
		// Ordering bug in the coordinator itself; the monitor's order
		// violation counter has already seen it via OpGrant.
		return
	}
	if next, ok := acq.Pending(); ok {
		sh.requestShard(c, next, t)
		return
	}
	// Whole set held: audit the holder's spec views, then release every
	// held shard together after the client's hold time.
	if multi {
		sh.audit = sh.monitor.Audit(c, sh.audit, func(shard int) tme.Phase { return sh.sims[shard].Node(i).Phase() })
	}
	relT := t + sh.clients[c].NextHold()
	held := acq.Held()
	st.relLeft = len(held)
	for _, shard := range held {
		sh.sims[shard].ReleaseAt(relT, i)
	}
}

// handleRelease processes one release event of node i on shard s at time
// t: free the slot, serve the next parked arrival, and complete the
// client's loop when its last shard is released.
func (sh *Sharded) handleRelease(s, i int, t int64) {
	sl := &sh.slots[s][i]
	c := sl.occ
	if c < 0 {
		return
	}
	sl.occ = -1
	sl.entered = false
	if rec := sl.qh; rec != nil {
		sl.qh = rec.next
		if sl.qh == nil {
			sl.qt = nil
		}
		sl.qlen--
		sl.occ = rec.client
		sl.entered = false
		sl.reqAt = t
		sh.sims[s].RequestAt(t, i)
		sh.pool.Put(rec)
	}
	st := &sh.cst[c]
	if st.relLeft > 0 {
		st.relLeft--
	}
	acq := &sh.acqs[c]
	if st.relLeft > 0 || !st.active || !acq.Done() {
		return
	}
	if len(acq.Set()) > 1 {
		sh.monitor.Observe(hme.OpRelease, c, 0, nil)
	}
	st.active = false
	st.loops++
	if sh.cfg.MaxLoops == 0 || st.loops < sh.cfg.MaxLoops {
		sh.pushArrival(arrival{at: t + sh.clients[c].NextThink(), client: int32(c)})
	} else if !st.done {
		st.done = true
		sh.done++
	}
}

// skipAhead fast-forwards over windows in which no shard has events and no
// arrival is due, using the group's virtual-clock low-water-mark.
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
	total := 0
	for i := range sh.cst {
		total += sh.cst[i].loops
	}
	return fmt.Sprintf("sharded{s=%d n=%d c=%d t=%d loops=%d done=%d}",
		sh.cfg.Shards, sh.cfg.N, len(sh.clients), sh.now, total, sh.done)
}

// Arrival heap: a plain binary min-heap ordered by (at, client) — the
// coordinator's only scheduling structure, kept dependency-free like the
// engine's overflow heap.

func (sh *Sharded) pushArrival(a arrival) {
	sh.heap = append(sh.heap, a)
	i := len(sh.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !arrivalLess(sh.heap[i], sh.heap[p]) {
			break
		}
		sh.heap[i], sh.heap[p] = sh.heap[p], sh.heap[i]
		i = p
	}
}

func (sh *Sharded) popArrival() arrival {
	h := sh.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	sh.heap = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && arrivalLess(h[l], h[small]) {
			small = l
		}
		if r < last && arrivalLess(h[r], h[small]) {
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

func arrivalLess(a, b arrival) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.client < b.client
}
