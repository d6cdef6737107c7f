package wire

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"github.com/graybox-stabilization/graybox/internal/channel"
	"github.com/graybox-stabilization/graybox/internal/engine"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wallclock"
)

// Link is the seam between internal/runtime's processes and the medium
// that carries their messages: *Transport, which delivers to its
// Local ids in-process, with or without the chaos proxy in front (Chaos
// interposes on a Link, and Chaos.Pipe returns one).
//
// The contract: Send never blocks indefinitely and preserves FIFO order
// per directed (From,To) edge; deliver is invoked from link-owned
// goroutines, or inside Send for a local destination, and must be
// goroutine-safe and never wait on the link (internal/runtime steps the
// destination inside it and routes what the step sends through Send,
// holding no lock);
// after Close returns no further deliver calls are made. Send after Close
// is a silent no-op.
type Link interface {
	// Start installs the delivery callback and launches the link's
	// goroutines. Called exactly once, before any Send.
	Start(deliver func(dst int, m tme.Message))
	// Send hands one message to the link. The caller has already
	// validated From/To against the cluster size.
	Send(m tme.Message)
	// Close terminates the link's goroutines and waits for them.
	Close() error
}

// ChaosConfig parameterizes the fault proxy.
type ChaosConfig struct {
	// N is the cluster size (required).
	N int
	// Shards is how many protocol instances share the wire (default 1).
	// Each shard gets its own delay-draw rng keyed off Seed, so one shard's
	// traffic volume cannot shift the delays another shard sees; shard 0
	// uses Seed directly, keeping unsharded draw sequences unchanged.
	Shards int
	// Seed drives the proxy's delay draws.
	Seed int64
	// MinDelay/MaxDelay bound the per-message hold time. The hold window
	// is what gives in-flight messages a queue the fault verbs can reach
	// — with zero delay the wire would never have anything to drop.
	// Defaults 500µs / 3ms.
	MinDelay, MaxDelay time.Duration
	// Obs, when non-nil, receives chaos metrics, trace events, and the
	// convergence timeline (fault times feed RecordFault).
	Obs *obs.Obs
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MinDelay <= 0 {
		c.MinDelay = 500 * time.Microsecond
	}
	if c.MaxDelay < c.MinDelay {
		c.MaxDelay = max(3*time.Millisecond, c.MinDelay)
	}
	return c
}

// chaosEntry is one held message: due says when the scheduler releases it
// onto out.
type chaosEntry struct {
	m   tme.Message
	due int64 // wall-clock ns
	out Link
}

type chaosInstruments struct {
	held       *obs.Counter
	released   *obs.Counter
	partDrop   *obs.Counter
	partitions *obs.Counter
	heals      *obs.Counter
	trace      *obs.Trace
	conv       *obs.Convergence
}

func newChaosInstruments(o *obs.Obs) chaosInstruments {
	if o == nil {
		return chaosInstruments{}
	}
	r := o.Registry()
	return chaosInstruments{
		held:       r.Counter("chaos_msgs_held_total", "messages entering the chaos proxy"),
		released:   r.Counter("chaos_msgs_released_total", "messages released downstream"),
		partDrop:   r.Counter("chaos_partition_dropped_total", "messages dropped for crossing a partition"),
		partitions: r.Counter("chaos_partitions_total", "Isolate calls"),
		heals:      r.Counter("chaos_heals_total", "Heal calls"),
		trace:      o.Tracer(),
		conv:       o.Convergence(),
	}
}

// Chaos is an in-path fault proxy: every message Pipe'd through it is held
// in a per-edge FIFO queue for a (seeded) random delay before being
// released downstream. While held, messages are exposed through the
// engine.Surface fault verbs — drop, duplicate, corrupt, flush — so
// internal/fault's Mix and Injector drive live TCP traffic exactly as they
// drive the simulators. Isolate/Heal add the partition verb: messages
// crossing the cut are dropped at release time.
//
// Chaos implements engine.Surface with wall-clock Now (sharing the
// convergence timeline with the runtime's entry records) and a nil Core:
// Injector.Burst and Injector.Apply work against it; At-based Schedule
// does not (live runs schedule faults by wall clock — see FaultSchedule).
type Chaos struct {
	cfg ChaosConfig
	eps []channel.Endpoint
	ins chaosInstruments

	mu       sync.Mutex
	rngs     []*rand.Rand                      // guarded by mu; one delay stream per shard
	queues   [][]chaosEntry                    // guarded by mu; indexed by edge (src-major, self-edges omitted)
	isolated []bool                            // guarded by mu
	oneWay   bool                              // guarded by mu; isolation drops only group→rest (gray asymmetric cut)
	perturb  func(id int, rng *rand.Rand) bool // guarded by mu
	closed   bool                              // guarded by mu

	kick chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewChaos builds the proxy and starts its release scheduler.
func NewChaos(cfg ChaosConfig) *Chaos {
	cfg2 := cfg.withDefaults()
	c := &Chaos{
		cfg:      cfg2,
		ins:      newChaosInstruments(cfg2.Obs),
		rngs:     make([]*rand.Rand, cfg2.Shards),
		queues:   make([][]chaosEntry, cfg2.N*(cfg2.N-1)),
		isolated: make([]bool, cfg2.N),
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	for s := range c.rngs {
		c.rngs[s] = rand.New(rand.NewSource(chaosShardSeed(cfg2.Seed, s)))
	}
	for s := 0; s < cfg2.N; s++ {
		for d := 0; d < cfg2.N; d++ {
			if s != d {
				c.eps = append(c.eps, channel.Endpoint{Src: s, Dst: d})
			}
		}
	}
	c.wg.Add(1)
	//gblint:ignore determinism the release scheduler is a wall-clock goroutine by design
	go c.scheduler()
	return c
}

// Pipe interposes the proxy in front of next: the returned Link delays
// and fault-injects every Send before forwarding to next. Start and Close
// pass straight through (next stays owned by its cluster).
func (c *Chaos) Pipe(next Link) Link { return &pipeLink{c: c, next: next} }

type pipeLink struct {
	c    *Chaos
	next Link
}

func (p *pipeLink) Start(deliver func(dst int, m tme.Message)) { p.next.Start(deliver) }
func (p *pipeLink) Send(m tme.Message)                         { p.c.submit(m, p.next) }
func (p *pipeLink) Close() error                               { return p.next.Close() }

// SetPerturb installs the process-state corruption hook backing
// FaultPerturb (the wire cannot reach node state itself; the cluster
// owner can). Install before faults fire.
func (c *Chaos) SetPerturb(f func(id int, rng *rand.Rand) bool) {
	c.mu.Lock()
	c.perturb = f
	c.mu.Unlock()
}

// Isolate partitions the cluster: messages between the given group and
// the rest are dropped at release time until Heal. A second call replaces
// the first group.
func (c *Chaos) Isolate(ids ...int) { c.isolate(false, ids) }

// IsolateOneWay installs an asymmetric cut: messages FROM the group to
// the rest are dropped, but messages TO the group still arrive — the
// gray-failure shape where a sick node hears the cluster yet cannot be
// heard. A second Isolate/IsolateOneWay call replaces the cut.
func (c *Chaos) IsolateOneWay(ids ...int) { c.isolate(true, ids) }

func (c *Chaos) isolate(oneWay bool, ids []int) {
	now := wallclock.Now()
	c.mu.Lock()
	for i := range c.isolated {
		c.isolated[i] = false
	}
	for _, id := range ids {
		if id >= 0 && id < c.cfg.N {
			c.isolated[id] = true
		}
	}
	c.oneWay = oneWay
	c.mu.Unlock()
	c.ins.partitions.Inc()
	c.ins.conv.RecordFault(now)
	detail := "partition"
	if oneWay {
		detail = "partition-oneway"
	}
	c.ins.trace.Emit(obs.Event{Time: now, Kind: obs.EvFault, A: -1, B: -1, Detail: detail})
}

// Heal removes the partition. The heal restarts the convergence window:
// recovery time is measured from the network becoming whole again.
func (c *Chaos) Heal() {
	now := wallclock.Now()
	c.mu.Lock()
	for i := range c.isolated {
		c.isolated[i] = false
	}
	c.oneWay = false
	c.mu.Unlock()
	c.ins.heals.Inc()
	c.ins.conv.RecordFault(now)
	c.ins.trace.Emit(obs.Event{Time: now, Kind: obs.EvFault, A: -1, B: -1, Detail: "heal"})
}

// Close stops the scheduler and drops everything still held.
func (c *Chaos) Close() error {
	c.once.Do(func() {
		c.mu.Lock()
		c.closed = true
		for i := range c.queues {
			c.queues[i] = nil
		}
		c.mu.Unlock()
		close(c.stop)
	})
	c.wg.Wait()
	return nil
}

// submit holds m for a random delay before release onto out.
func (c *Chaos) submit(m tme.Message, out Link) {
	idx, ok := c.edgeIndex(m.From, m.To)
	if !ok {
		out.Send(m) // not a proxyable edge (shouldn't happen: route validates)
		return
	}
	if !c.hold(idx, m, out) {
		return
	}
	c.ins.held.Inc()
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// chaosShardSeed derives shard s's delay-stream seed. Shard 0 returns the
// base seed unchanged (unsharded runs keep their historical draw
// sequences); later shards mix the shard id through FNV-1a.
func chaosShardSeed(seed int64, s int) int64 {
	if s == 0 {
		return seed
	}
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(s))
	_, _ = h.Write([]byte("chaos/shard/"))
	_, _ = h.Write(b[:])
	return seed ^ int64(h.Sum64())
}

// hold draws the delay from the message's shard stream and appends the
// entry under the lock; false when the proxy is closed. A Resource outside
// the configured shard range (corruption, unsharded senders) falls back to
// stream 0.
func (c *Chaos) hold(idx int, m tme.Message, out Link) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	rng := c.rngs[0]
	if m.Resource > 0 && m.Resource < len(c.rngs) {
		rng = c.rngs[m.Resource]
	}
	span := int64(c.cfg.MaxDelay - c.cfg.MinDelay)
	delay := int64(c.cfg.MinDelay)
	if span > 0 {
		delay += rng.Int63n(span + 1)
	}
	c.queues[idx] = append(c.queues[idx], chaosEntry{m: m, due: wallclock.Now() + delay, out: out})
	return true
}

// scheduler releases due messages in edge-scan order, preserving FIFO per
// edge (queues are due-ordered except for duplicates, released in queue
// order anyway). Its one timer is re-aimed only when the earliest due time
// moves before the one it is armed for, so a pass that a submit kicked
// costs no timer call; a fire that finds nothing due, a stale one
// included, is one more pass that re-aims it. A pass allocates nothing in
// steady state: drained queues are compacted in place, so their arrays
// serve the next holds, and the released entries go through one buffer the
// scheduler keeps.
func (c *Chaos) scheduler() {
	defer c.wg.Done()
	timer := wallclock.NewTimer()
	defer timer.Close()
	var release []chaosEntry
	aimed := int64(-1) // the due time the timer is armed for; -1 when it is not
	for {
		now := wallclock.Now()
		var next int64
		release, next = c.collect(now, release[:0])
		for i := range release {
			release[i].out.Send(release[i].m)
			c.ins.released.Inc()
			release[i] = chaosEntry{} // hold no message or link past its release
		}
		if next >= 0 && (aimed < 0 || next < aimed) {
			timer.Reset(time.Duration(next - now))
			aimed = next
		}
		select {
		case <-c.stop:
			return
		case <-c.kick:
		case <-timer.C:
			aimed = -1
		}
	}
}

// collect removes every due entry from the queues, appending the ones not
// cut by a partition to release, and returns it with the earliest due time
// still held (-1 when nothing is). Each drained queue is compacted in place
// and its vacated tail cleared.
func (c *Chaos) collect(now int64, release []chaosEntry) ([]chaosEntry, int64) {
	next := int64(-1)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, q := range c.queues {
		n := 0
		for n < len(q) && q[n].due <= now {
			n++
		}
		for _, e := range q[:n] {
			// Corruption may have forged From out of range; such messages
			// are inside no partition group.
			srcIso := e.m.From >= 0 && e.m.From < c.cfg.N && c.isolated[e.m.From]
			dstIso := e.m.To >= 0 && e.m.To < c.cfg.N && c.isolated[e.m.To]
			cut := srcIso != dstIso
			if c.oneWay {
				cut = srcIso && !dstIso
			}
			if cut {
				c.ins.partDrop.Inc()
				continue
			}
			release = append(release, e)
		}
		if n > 0 {
			kept := copy(q, q[n:])
			clear(q[kept:])
			q = q[:kept]
			c.queues[i] = q
		}
		if len(q) > 0 && (next < 0 || q[0].due < next) {
			next = q[0].due
		}
	}
	return release, next
}

// edgeIndex maps (src,dst) to the dense queue layout; ok=false for
// self-edges and out-of-range ids.
func (c *Chaos) edgeIndex(src, dst int) (int, bool) {
	if src < 0 || src >= c.cfg.N || dst < 0 || dst >= c.cfg.N || src == dst {
		return 0, false
	}
	idx := src * (c.cfg.N - 1)
	if dst > src {
		return idx + dst - 1, true
	}
	return idx + dst, true
}

// ---- engine.Surface ----

var _ engine.Surface = (*Chaos)(nil)

// Now returns the wall clock in nanoseconds — the proxy's "virtual time"
// is real time, shared with the runtime's entry and convergence records.
func (c *Chaos) Now() int64 { return wallclock.Now() }

// N returns the cluster size.
func (c *Chaos) N() int { return c.cfg.N }

// Obs returns the proxy's observability bundle.
func (c *Chaos) Obs() *obs.Obs { return c.cfg.Obs }

// Core returns nil: the proxy has no virtual-time event core, so
// injectors must use Burst/Apply (wall-clock scheduling lives in
// FaultSchedule), never Schedule.
func (c *Chaos) Core() *engine.Core { return nil }

// Channels enumerates the directed edges in deterministic (src-major)
// order.
func (c *Chaos) Channels() []channel.Endpoint { return c.eps }

// QueueLen returns how many messages are currently held on ep.
func (c *Chaos) QueueLen(ep channel.Endpoint) int {
	idx, ok := c.edgeIndex(ep.Src, ep.Dst)
	if !ok {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queues[idx])
}

// FaultDrop removes the i-th held message on ep. Because the scheduler
// drains concurrently, i may have gone stale between the injector's
// QueueLen and this call; stale indexes return false.
func (c *Chaos) FaultDrop(ep channel.Endpoint, i int) bool {
	idx, ok := c.edgeIndex(ep.Src, ep.Dst)
	if !ok {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	q := c.queues[idx]
	if i < 0 || i >= len(q) {
		return false
	}
	c.queues[idx] = append(q[:i], q[i+1:]...)
	return true
}

// FaultDuplicate copies the i-th held message on ep, due redeliver
// milliseconds after the original (the surface's redeliver is in substrate
// ticks; on the wire a tick is a millisecond).
func (c *Chaos) FaultDuplicate(ep channel.Endpoint, i int, redeliver int64) bool {
	idx, ok := c.edgeIndex(ep.Src, ep.Dst)
	if !ok {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	q := c.queues[idx]
	if i < 0 || i >= len(q) {
		return false
	}
	dup := q[i]
	dup.due += redeliver * int64(time.Millisecond)
	c.queues[idx] = append(q, dup)
	return true
}

// FaultCorrupt damages the i-th held message on ep with
// tme.CorruptMessage — the simulator's damage from the same draws.
func (c *Chaos) FaultCorrupt(ep channel.Endpoint, i int, rng *rand.Rand) bool {
	idx, ok := c.edgeIndex(ep.Src, ep.Dst)
	if !ok {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	q := c.queues[idx]
	if i < 0 || i >= len(q) {
		return false
	}
	tme.CorruptMessage(rng, &q[i].m, c.cfg.N)
	return true
}

// FaultPerturb corrupts process id's state through the installed hook
// (false without one).
func (c *Chaos) FaultPerturb(id int, rng *rand.Rand) bool {
	c.mu.Lock()
	f := c.perturb
	c.mu.Unlock()
	if f == nil {
		return false
	}
	return f(id, rng)
}

// FaultFlush drops every message held on ep.
func (c *Chaos) FaultFlush(ep channel.Endpoint) bool {
	idx, ok := c.edgeIndex(ep.Src, ep.Dst)
	if !ok {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queues[idx]) == 0 {
		return false
	}
	c.queues[idx] = nil
	return true
}
