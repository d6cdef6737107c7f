// Package runtime executes a TME system on real goroutines — the
// concurrent counterpart of internal/sim. Messages travel through the
// Transport the caller supplies. The package has no medium of its own: the
// paper's in-flight faults (§3.1: finite but arbitrary delay, loss,
// duplication, corruption) have one live implementation, internal/wire's
// chaos proxy, and a cluster in one process is that proxy piped into one
// wire.Transport whose Local lists every id, so one medium serves
// single-process demos and real clusters alike.
//
// Each process is one wrapper.Process, the wrapped process C ▯ W' the
// simulator steps too, and the step runs where its input arrives: a
// delivery on the goroutine that delivers it (a TCP reader, the chaos
// proxy's scheduler, or the sender of a synchronous local delivery), a
// client action or corruption on its caller's, and a W' deadline on its
// wallclock.Timer's. Every input runs under the process's lock, and what it
// returns is routed after the lock is released. The level-2 wrapper is
// armed, not ticked: one timer per process is aimed at the armed W'
// deadline, so a process that is not hungry costs the wrapper nothing. The
// package starts no goroutine of its own.
//
// The simulator is the measurement substrate (deterministic virtual time);
// this package demonstrates the same wrapper recovering real concurrent
// executions, and backs the runnable examples.
package runtime

import (
	"fmt"
	"sync"
	"time"

	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wallclock"
	"github.com/graybox-stabilization/graybox/internal/wire"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// Config parameterizes a cluster.
type Config struct {
	// N is the number of processes (required, ≥ 1).
	N int
	// Shards is the number of independent protocol instances every process
	// participates in (default 1). Each shard runs its own node state and
	// wrapper per process; messages carry the shard in tme.Message.Resource
	// and are routed to the matching instance. Shard 0 with Shards == 1 is
	// the single-CS system of the paper, byte-identical on the wire.
	Shards int
	// Deprecated: Seed is ignored; the cluster draws nothing. Delays and
	// in-flight faults are the Transport's (internal/wire's chaos proxy
	// takes its own seed).
	Seed int64
	// NewNode constructs each process (required).
	NewNode func(id, n int) tme.Node
	// NewWrapper, when non-nil, attaches a level-2 wrapper per process. It
	// is evaluated δ after the process turns Hungry and every δ after that
	// while it stays hungry, δ being wrapper.Timeout of the wrapper in
	// nanoseconds (Fire receives Unix nanoseconds); a wrapper with no
	// timeout, the eager W, is evaluated every millisecond of a hungry
	// stretch.
	NewWrapper func(id int) wrapper.Level2
	// Deprecated: WrapperTick is ignored; W' is armed per hungry stretch
	// (see NewWrapper), not evaluated on a tick.
	WrapperTick time.Duration
	// Level1, when non-nil, is the level-1 wrapper run on a process after
	// every delivery and client action at it and after every corruption
	// (intra-process repair, §2.2).
	Level1 wrapper.Level1
	// Obs, when non-nil, receives runtime metrics and trace events. All
	// instruments are goroutine-safe; nil disables observability at
	// nil-method-call cost.
	Obs *obs.Obs
	// Transport carries inter-process messages (required). In one process
	// it is internal/wire's chaos proxy piped into one wire.Transport whose
	// Local lists every id; wire.Link states the contract. The cluster
	// owns the transport: Stop closes it.
	Transport wire.Link
	// Local lists the process ids hosted by this cluster (node state, and
	// the W' timer of a wrapped one). Empty means all N — the
	// single-process default. With a subset, messages to remote ids go
	// through Transport and calls addressing remote ids are no-ops.
	Local []int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// Entry reports one CS entry observed by the cluster.
type Entry struct {
	// ID is the entering process; Seq numbers entries cluster-wide.
	ID, Seq int
	// Shard is the protocol instance entered (0 in unsharded clusters).
	Shard int
	// At is the wall-clock entry time.
	At time.Time
}

// Cluster is a running TME system on goroutines. Construct with NewCluster,
// then Start; always Stop to reclaim every goroutine and descriptor.
type Cluster struct {
	cfg   Config
	procs [][]*proc // indexed [shard][id]; nil for ids not in cfg.Local
	ins   rtInstruments

	mu      sync.Mutex
	seq     int         // guarded by mu
	onEntry func(Entry) // guarded by mu

	stop chan struct{}
	once sync.Once
}

// rtInstruments caches the cluster's obs handles; every field is nil when
// the cluster runs without observability (all publishes become no-ops).
// Counters and gauges are atomics and the trace ring is mutex-guarded, so
// publishing from every goroutine that steps a process is race-free.
type rtInstruments struct {
	sent      *obs.Counter
	delivered *obs.Counter
	entries   *obs.Counter
	repairs   *obs.Counter
	trace     *obs.Trace
	conv      *obs.Convergence
}

func newRTInstruments(o *obs.Obs) rtInstruments {
	if o == nil {
		return rtInstruments{}
	}
	r := o.Registry()
	return rtInstruments{
		sent:      r.Counter("runtime_msgs_sent_total", "messages routed onto edges"),
		delivered: r.Counter("runtime_msgs_delivered_total", "messages delivered to processes"),
		entries:   r.Counter("runtime_entries_total", "CS entries observed"),
		repairs:   r.Counter("runtime_level1_repairs_total", "level-1 wrapper repairs"),
		trace:     o.Tracer(),
		conv:      o.Convergence(),
	}
}

// eagerEvery is how often a wrapper with no timeout (the eager W, δ = 0)
// is evaluated while its process stays hungry: the live reading of the
// simulator's one-tick period.
const eagerEvery = time.Millisecond

// proc is one process: its wrapped process and W' timer, guarded by mu,
// plus its token channel, which is set once in NewCluster before any
// goroutine exists and never reassigned, so it needs no guard.
type proc struct {
	id    int
	shard int
	mu    sync.Mutex
	w     wrapper.Process // guarded by mu; times are Unix nanoseconds
	// timer calls Cluster.deadline at the armed W' deadline. Guarded by
	// mu, as every Reset of it is: the timer's owner is whoever holds mu.
	// Set by Start in a wrapped cluster and cleared by Stop before it
	// closes the timer; nil otherwise.
	timer *wallclock.Timer
	// phaseMoved holds one token while a move of the node's phase may be
	// unseen (capacity 1: a token says "look again", not how often). Sent
	// to only under mu, by note, so the phase a token announces is readable
	// by the time the token is; received from lock-free by
	// AwaitPhaseChangeShard.
	phaseMoved chan struct{}
}

// note acts on what an outcome of p.w, fed at now, calls for when the
// phase moved: the phase-change token, and the timer aimed at the deadline
// a move into Hungry arms, the only move that arms one. Every section that
// feeds p.w an input ends with it. Called with mu held.
func (p *proc) note(o wrapper.Outcome, now int64) {
	if !o.PhaseMoved {
		return
	}
	p.aim(o.Due, now)
	select {
	case p.phaseMoved <- struct{}{}:
	default:
	}
}

// aim resets p's timer, if it has one, to fire at due, unless due is -1
// (disarmed: a pending fire is left to fall into a no-op). Called with mu
// held.
func (p *proc) aim(due, now int64) {
	if due >= 0 && p.timer != nil {
		p.timer.Reset(time.Duration(due - now))
	}
}

// NewCluster builds a cluster; it does not start any goroutine.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.N < 1 || cfg.NewNode == nil {
		return nil, fmt.Errorf("runtime: Config.N (%d) and NewNode are required", cfg.N)
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("runtime: Config.Transport is required (in one process: wire.NewChaos(...).Pipe of one wire.Transport whose Local lists every id)")
	}
	c := &Cluster{
		cfg:  cfg.withDefaults(),
		ins:  newRTInstruments(cfg.Obs),
		stop: make(chan struct{}),
	}
	local := make([]bool, cfg.N)
	if len(cfg.Local) == 0 {
		for i := range local {
			local[i] = true
		}
	} else {
		for _, id := range cfg.Local {
			if id < 0 || id >= cfg.N {
				return nil, fmt.Errorf("runtime: Config.Local id %d out of range [0,%d)", id, cfg.N)
			}
			local[id] = true
		}
	}
	c.procs = make([][]*proc, c.cfg.Shards)
	for s := 0; s < c.cfg.Shards; s++ {
		c.procs[s] = make([]*proc, cfg.N)
		for i := 0; i < cfg.N; i++ {
			if !local[i] {
				continue
			}
			node := cfg.NewNode(i, cfg.N)
			p := &proc{id: i, shard: s, phaseMoved: make(chan struct{}, 1)}
			var l2 wrapper.Level2
			every := int64(0)
			if cfg.NewWrapper != nil {
				raw := cfg.NewWrapper(i)
				if every = wrapper.Timeout(raw); every <= 0 {
					every = int64(eagerEvery)
				}
				// Instrumentation is per process id; shard instances of one
				// process share its wrapper gauges, which sum naturally.
				l2 = wrapper.InstrumentLevel2(cfg.Obs, i, raw)
			}
			p.w = wrapper.NewProcess(node, cfg.Level1, l2, every)
			// A fresh node is arbitrary state to its step: this repairs it
			// and arms a node that starts hungry (Start aims the timer).
			now := wallclock.Now()
			p.note(p.w.Corrupt(nil, now), now)
			c.procs[s][i] = p
		}
	}
	return c, nil
}

// OnEntry installs a callback invoked at every CS entry, on the goroutine
// whose input made the process enter, with no lock of the cluster's held.
// Install before Start; installing later is safe but earlier entries are
// not replayed (the cluster keeps no entry log, so a long-lived process
// has flat memory).
func (c *Cluster) OnEntry(f func(Entry)) {
	c.mu.Lock()
	c.onEntry = f
	c.mu.Unlock()
}

// Start opens the W' timers of a wrapped cluster, each aimed at its
// process's armed deadline, then starts the transport.
func (c *Cluster) Start() {
	if c.cfg.NewWrapper != nil {
		c.each(func(p *proc) {
			t := wallclock.NewFuncTimer(func() { c.deadline(p) })
			p.mu.Lock()
			p.timer = t
			p.aim(p.w.Due(), wallclock.Now())
			p.mu.Unlock()
		})
	}
	c.cfg.Transport.Start(c.deliver)
}

// Stop closes the W' timers and then the transport. It returns once no
// timer callback runs or can run and the transport's goroutines have
// exited; a second Stop waits for the first.
func (c *Cluster) Stop() {
	c.once.Do(func() {
		close(c.stop)
		c.each(func(p *proc) {
			// The callback takes p.mu, and Close waits for it: let go of the
			// timer under p.mu, so that nothing re-arms it, and close it
			// outside.
			p.mu.Lock()
			t := p.timer
			p.timer = nil
			p.mu.Unlock()
			if t != nil {
				t.Close()
			}
		})
		_ = c.cfg.Transport.Close()
	})
}

// deliver is the transport's callback: step local process dst, on the
// shard instance m's Resource names, with m, on the delivering goroutine.
// Messages to remote/out-of-range ids are dropped (the transport on the
// hosting machine delivers those); so are messages whose resource id no
// local shard runs — a forged or corrupted shard id is semantic garbage,
// dropped like any other.
//
// Any number of goroutines deliver to one process, and the next Deliver
// rewrites the node's reply buffer, so the reply is copied out under p.mu
// before it is routed. ra and lamport reply with at most one message, so
// the copy fits the fixed array and a delivery allocates nothing.
func (c *Cluster) deliver(dst int, m tme.Message) {
	if dst < 0 || dst >= c.cfg.N || m.Resource < 0 || m.Resource >= c.cfg.Shards {
		return
	}
	p := c.procs[m.Resource][dst]
	if p == nil {
		return
	}
	var reply [1]tme.Message
	p.mu.Lock()
	now := wallclock.Now()
	o := p.w.Deliver(m, now)
	p.note(o, now)
	o.Program = append(reply[:0], o.Program...)
	p.mu.Unlock()
	c.ins.delivered.Inc()
	c.emit(p, o)
}

// deadline is p's timer callback, run on the timer's goroutine: p.w fires
// W' if its deadline fell due, and the timer is re-aimed at the deadline
// p.w then holds (a disarmed one is left to fire into a no-op). Fire's
// result may be the wrapper's own buffer (wrapper.Level2's contract); it is
// routed outside p.mu, which is safe because only this callback fires the
// wrapper, and the timer never runs two calls of it at once.
func (c *Cluster) deadline(p *proc) {
	p.mu.Lock()
	now := wallclock.Now()
	o := p.w.Deadline(now)
	p.aim(o.Due, now)
	p.mu.Unlock()
	c.emit(p, o)
}

// emit carries an outcome of p.w out of p.mu: a repair into the counters,
// the messages onto the transport, an entry to the entry callback. No
// process lock may be held here: a local destination is stepped inside
// Send, on this goroutine, and may route back to p.
func (c *Cluster) emit(p *proc, o wrapper.Outcome) {
	if o.Repaired {
		c.ins.repairs.Inc()
	}
	c.route(p.shard, o.Program)
	c.route(p.shard, o.Wrapper)
	if o.Entered {
		c.recordEntry(p.shard, p.id)
	}
}

// route dispatches messages onto the transport, stamping the originating
// shard into Resource (protocol nodes are shard-blind; the cluster owns
// the shard dimension).
func (c *Cluster) route(shard int, msgs []tme.Message) {
	for _, m := range msgs {
		if m.From < 0 || m.From >= c.cfg.N || m.To < 0 || m.To >= c.cfg.N || m.From == m.To {
			continue
		}
		m.Resource = shard
		c.cfg.Transport.Send(m)
		c.ins.sent.Inc()
	}
}

func (c *Cluster) recordEntry(shard, id int) {
	c.mu.Lock()
	e := Entry{ID: id, Seq: c.seq, Shard: shard, At: time.Unix(0, wallclock.Now())}
	c.seq++
	cb := c.onEntry
	c.mu.Unlock()
	c.ins.entries.Inc()
	c.ins.conv.RecordProgress(e.At.UnixNano())
	if c.ins.trace != nil {
		c.ins.trace.Emit(obs.Event{Time: e.At.UnixNano(), Kind: obs.EvProgress, A: id, B: shard, N: e.Seq, Detail: "cs-entry"})
	}
	if cb != nil {
		cb(e)
	}
}

// each calls f on every local process.
func (c *Cluster) each(f func(p *proc)) {
	for _, shard := range c.procs {
		for _, p := range shard {
			if p != nil {
				f(p)
			}
		}
	}
}

// procAt resolves a (shard, id) pair to its local proc, nil when either
// index is out of range or the id is not hosted locally.
func (c *Cluster) procAt(shard, id int) *proc {
	if shard < 0 || shard >= c.cfg.Shards || id < 0 || id >= c.cfg.N {
		return nil
	}
	return c.procs[shard][id]
}

// RequestShard asks process id to request the CS of the given shard. One
// caller per (shard, id), as for AwaitPhaseChangeShard: harness.RunLiveClient
// is that pair's client goroutine, and it issues RequestShard and
// ReleaseShard one after the other.
//
// The fan-out is routed after p.mu is released, as a view of the node's own
// RequestCS buffer (tme.Node's contract), while any goroutine may Deliver
// to the node and its timer may fire W'. That is safe because
//   - the buffer is disjoint from Deliver's reply and from the wrapper's
//     buffer, so those inputs never write it;
//   - only the next RequestCS on the node rewrites it, and with one caller
//     per pair that call comes after this route returns. The route itself
//     may step local destinations inside Send, on this goroutine, and they
//     may route back to p, but a delivery never requests.
//
// Unlike the client's buffers, Deliver's reply has a writer per delivering
// goroutine, so deliver copies it out under p.mu. ReleaseShard routes its
// ReleaseCS buffer under the same argument as RequestShard.
// TestFanOutSurvivesConcurrentDeliverAndFire checks both under -race.
func (c *Cluster) RequestShard(shard, id int) {
	p := c.procAt(shard, id)
	if p == nil {
		return
	}
	p.mu.Lock()
	now := wallclock.Now()
	o := p.w.Request(now)
	p.note(o, now)
	p.mu.Unlock()
	c.emit(p, o)
}

// ReleaseShard asks process id to release the CS of the given shard. One
// caller per (shard, id); see RequestShard for why its result may be routed
// outside p.mu.
func (c *Cluster) ReleaseShard(shard, id int) {
	p := c.procAt(shard, id)
	if p == nil {
		return
	}
	p.mu.Lock()
	now := wallclock.Now()
	o := p.w.Release(now)
	p.note(o, now)
	p.mu.Unlock()
	c.emit(p, o)
}

// PhaseShard returns process id's current phase on the given shard.
func (c *Cluster) PhaseShard(shard, id int) tme.Phase {
	p := c.procAt(shard, id)
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.w.Node().Phase()
}

// AwaitPhaseChangeShard blocks until process id's phase on the given shard
// differs from from, and returns the phase it found. It returns false, with
// the phase last read, when stop closes or the cluster stops first, and
// (0, false) at once when id is not hosted locally. The phase is re-read
// under the process's lock after every wake-up, so a token left over from
// an earlier move costs one extra look and a move is never missed. No
// timer, no goroutine, no allocation. One waiter per (shard, id): two
// would take each other's tokens.
func (c *Cluster) AwaitPhaseChangeShard(stop <-chan struct{}, shard, id int, from tme.Phase) (tme.Phase, bool) {
	p := c.procAt(shard, id)
	if p == nil {
		return 0, false
	}
	for {
		p.mu.Lock()
		ph := p.w.Node().Phase()
		p.mu.Unlock()
		if ph != from {
			return ph, true
		}
		select {
		case <-p.phaseMoved:
		case <-stop:
			return ph, false
		case <-c.stop:
			return ph, false
		}
	}
}

// SnapshotShard returns process id's spec-level state on the given shard.
func (c *Cluster) SnapshotShard(shard, id int) tme.SpecState {
	p := c.procAt(shard, id)
	if p == nil {
		return tme.SpecState{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return tme.Snapshot(p.w.Node())
}

// CorruptShard applies a transient state corruption to process id on the
// given shard, then the level-1 wrapper: a quiescent process has no other
// event to repair it at.
func (c *Cluster) CorruptShard(shard, id int, corr tme.Corruption) {
	p := c.procAt(shard, id)
	if p == nil {
		return
	}
	p.mu.Lock()
	now := wallclock.Now()
	o := p.w.Corrupt(&corr, now)
	p.note(o, now)
	p.mu.Unlock()
	c.emit(p, o)
}

// Shards returns the number of protocol instances per process.
func (c *Cluster) Shards() int { return c.cfg.Shards }
