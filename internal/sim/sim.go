// Package sim is the TME system model of DSN 2001 §3.1 — asynchronous
// processes communicating over FIFO channels with arbitrary-but-finite
// delays — built on the deterministic discrete-event core in
// internal/engine. It is the paper's (unstated) testbed, rebuilt: every
// run is a pure function of its configuration and seed, so experiments are
// reproducible and convergence can be measured in virtual time.
//
// The simulator drives tme.Node implementations (internal/ra,
// internal/lamport), each boxed in a wrapper.Process — the wrapped process
// C ▯ W' the goroutine runtime steps too, realizing the M ▯ W composition
// operationally — and exposes hooks for the fault injector
// (internal/fault) and for spec monitors (internal/lspec) via per-event
// observers. The simulator keeps only what virtual time needs: the mesh,
// one evWrapperDeadline per process for its armed W' deadline, the moved
// set, the metrics and the hooks.
//
// W' is armed, not ticked, with a period of max(δ,1) ticks. A process that
// is not hungry costs the wrapper no event.
//
// The hot path is allocation-free in steady state: scheduled occurrences
// are typed engine event records (no closure per event) interpreted by the
// dispatch switch. Every site that writes a process adds it to the moved
// set (one bit, set whether or not anyone reads it), and an observer that
// drains the set with Moved re-reads only the processes named there: an
// observation costs what moved, not what exists.
//
// Counter contract. The event loop counts messages, deliveries, requests,
// releases and events in plain Metrics fields, and Sim.Metrics() is current
// always. The obs counters that shadow them (sim_msgs_*,
// sim_msgs_delivered_total, sim_requests_total, sim_releases_total,
// sim_events_total), the sim_time gauge and the fairness gauges are
// published, not live: they are current when Run (or Sharded.Run) returns
// and inside an At closure, and stale in between, which is where only a
// per-event Observer could look; an Observer reads Metrics.
package sim

import (
	"fmt"
	"math/bits"

	"github.com/graybox-stabilization/graybox/internal/channel"
	"github.com/graybox-stabilization/graybox/internal/engine"
	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/seeded"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/workload"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// Config parameterizes a simulation. NewNode and N are required; zero
// values elsewhere select sensible defaults (see field comments).
type Config struct {
	// N is the number of processes (required, ≥ 1).
	N int
	// Seed drives every random choice in the run.
	Seed int64
	// NewNode constructs process id of n (required): ra.New, lamport.New,
	// or any other tme.Node implementation.
	NewNode func(id, n int) tme.Node
	// NewWrapper, when non-nil, attaches a level-2 wrapper to each
	// process, realizing M ▯ W. Called once per process id.
	NewWrapper func(id int) wrapper.Level2
	// Level1, when non-nil, is the level-1 wrapper run on each process
	// after every delivery and client action at it, and on every process
	// after a fault closure.
	Level1 wrapper.Level1
	// MinDelay and MaxDelay bound per-message transmission delay in
	// virtual ticks. Defaults: 1 and 5.
	MinDelay, MaxDelay int64
	// Workload, when true, runs a client (a workload.Driver) at every
	// process: think, request, eat, release, repeat.
	Workload bool
	// ThinkMin/ThinkMax bound the built-in client's think time, drawn
	// uniformly from the run's "sim.client" stream. Defaults: 5 and 20.
	ThinkMin, ThinkMax int64
	// EatTime is how long the built-in client eats before releasing.
	// Default 3.
	EatTime int64
	// NewClient, when non-nil (and Workload is on), replaces the built-in
	// uniform draws at each process with the returned stream (a
	// workload.Gen or a replayed workload.Schedule).
	NewClient func(id int) workload.Client
	// MaxRequests caps requests each client issues (0 = unlimited). A
	// client whose budget is spent parks, so bounded workloads drain the
	// event queue and Run can return before its horizon.
	MaxRequests int
	// Obs, when non-nil, receives metrics and trace events for the run.
	// The nil default costs only no-op calls on nil instruments.
	Obs *obs.Obs
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MinDelay == 0 && out.MaxDelay == 0 {
		out.MinDelay, out.MaxDelay = 1, 5
	}
	if out.MaxDelay < out.MinDelay {
		out.MaxDelay = out.MinDelay
	}
	if out.ThinkMin == 0 && out.ThinkMax == 0 {
		out.ThinkMin, out.ThinkMax = 5, 20
	}
	if out.ThinkMax < out.ThinkMin {
		out.ThinkMax = out.ThinkMin
	}
	if out.EatTime <= 0 {
		out.EatTime = 3
	}
	return out
}

// Entry records one CS entry.
type Entry struct {
	// Time is the virtual time of the entry.
	Time int64
	// ID is the entering process.
	ID int
	// REQ is the request timestamp it entered with.
	REQ ltime.Timestamp
}

// Metrics accumulates counters over a run.
type Metrics struct {
	// Entries lists every CS entry in order.
	Entries []Entry
	// ProgramMsgs and WrapperMsgs count messages by origin.
	ProgramMsgs, WrapperMsgs int
	// kindCounts counts sent messages by kind (program + wrapper),
	// indexed by kindSlot. A fixed array instead of a map keeps the send
	// path allocation- and hash-free; read through MsgsByKind.
	kindCounts [4]int
	// Delivered counts messages actually delivered.
	Delivered int
	// Requests and Releases count client actions performed.
	Requests, Releases int
	// Events counts processed simulator events.
	Events int64
}

// MsgsByKind returns the number of sent messages of kind k (program +
// wrapper). Invalid kinds share one slot.
func (m *Metrics) MsgsByKind(k tme.Kind) int { return m.kindCounts[kindSlot(k)] }

// GlobalState is a plain-data snapshot of the whole system, consumed by
// spec monitors.
type GlobalState struct {
	// Time is the snapshot's virtual time.
	Time int64
	// Nodes holds one SpecState per process, indexed by id.
	Nodes []tme.SpecState
	// InFlight holds all queued messages, in deterministic endpoint
	// order, head first per channel. Snapshot and SnapshotInto fill it;
	// the per-event observer path leaves it empty (no monitor reads the
	// channels).
	InFlight []tme.Message
}

// Eating returns the ids of processes currently eating. It allocates;
// monitors on the per-event path use NumEating instead.
func (g *GlobalState) Eating() []int {
	var out []int
	for _, s := range g.Nodes {
		if s.Phase == tme.Eating {
			out = append(out, s.ID)
		}
	}
	return out
}

// NumEating returns how many processes are currently eating, without
// allocating (ME1 only needs the count).
func (g *GlobalState) NumEating() int {
	n := 0
	for i := range g.Nodes {
		if g.Nodes[i].Phase == tme.Eating {
			n++
		}
	}
	return n
}

// Observer is called after every processed event with the up-to-date
// simulation. Observers may read state (Snapshot, Node, Now) but must not
// mutate the simulation.
type Observer func(s *Sim)

// The typed event kinds of the TME hot path. Every recurring occurrence
// (delivery, client timer, wrapper deadline, release) is a plain engine
// record dispatched by a switch; only the rare path — At, used by fault
// injectors and tests — carries a closure (engine.KindFunc).
//
//gblint:kindset sim-ev
const (
	// evDeliver pops the head of channel a→b into node b.
	evDeliver uint8 = iota + 1
	// evClientTimer is node a's client deadline (think or hold) falling due.
	evClientTimer
	// evWrapperDeadline is node a's armed W' timeout falling due: δ after
	// the node was first seen hungry, then every δ while it stays hungry.
	evWrapperDeadline
	// evRequest performs the client "Request CS" action at node a.
	evRequest
	// evRelease performs the client "Release CS" action at node a.
	evRelease
)

// Sim is one simulation instance. Construct with New, then Run.
type Sim struct {
	cfg      Config
	core     *engine.Core
	mesh     *engine.Mesh[tme.Message]
	client   seeded.Stream     // the built-in client's think draws (clientStream)
	procs    []wrapper.Process // one wrapped process C ▯ W' per node
	queued   []bool            // an evWrapperDeadline of node i is in the queue; nil without wrappers
	net      *channel.Net[tme.Message]
	drivers  []workload.Driver // one client per node; nil without Workload
	lastReq  []int64           // time of each node's outstanding request (-1 = none)
	metrics  Metrics
	observer Observer
	ins      instruments

	// onEntry/onRelease are the sharded coordinator's harvest hooks. They
	// fire inside the event loop, mid-window, so they must write only
	// shard-confined state (the coordinator's per-shard buffer).
	onEntry   func(node int, t int64)
	onRelease func(node int, t int64)

	// The moved set, drained by Moved: bit i%64 of moved[i/64] is set
	// when a simulator site may have written process i since the last
	// drain, and movedAll when an At closure ran or Run was entered
	// (either may have written anything). Spec monitors re-read and judge
	// only what it names, so a site that writes a node without marking it
	// loses verdicts.
	moved    []uint64
	movedAll bool
}

// instruments caches the simulator's obs handles. Every field is nil when
// observability is off, so publishing degrades to nil-receiver no-ops.
type instruments struct {
	obs        *obs.Obs
	trace      *obs.Trace
	conv       *obs.Convergence
	fair       *obs.Fairness
	progMsgs   *obs.Counter
	wrapMsgs   *obs.Counter
	byKind     [4]*obs.Counter // indexed by tme.Kind; slot 0 catches invalid kinds
	delivered  *obs.Counter
	lost       *obs.Counter
	entries    *obs.Counter
	requests   *obs.Counter
	releases   *obs.Counter
	repairs    *obs.Counter
	events     *obs.Counter
	simTime    *obs.Gauge
	entryGap   *obs.Histogram // virtual ticks between consecutive CS entries
	lastEntry  int64
	haveEntry  bool
	published  Metrics   // the counts publish last raised the counters to
	kindDetail [4]string // static labels for trace events (no per-event alloc)
}

func newInstruments(o *obs.Obs) instruments {
	ins := instruments{obs: o}
	if o == nil {
		return ins
	}
	r := o.Registry()
	ins.trace = o.Tracer()
	ins.conv = o.Convergence()
	ins.fair = o.Fairness()
	ins.progMsgs = r.Counter("sim_msgs_program_total", "messages sent by the programs")
	ins.wrapMsgs = r.Counter("sim_msgs_wrapper_total", "messages sent by wrappers")
	ins.byKind[0] = r.Counter("sim_msgs_kind_invalid_total", "messages sent with an invalid kind")
	ins.byKind[tme.Request] = r.Counter("sim_msgs_kind_request_total", "request messages sent")
	ins.byKind[tme.Reply] = r.Counter("sim_msgs_kind_reply_total", "reply messages sent")
	ins.byKind[tme.Release] = r.Counter("sim_msgs_kind_release_total", "release messages sent")
	ins.delivered = r.Counter("sim_msgs_delivered_total", "messages delivered")
	ins.lost = r.Counter("sim_delivery_misses_total", "delivery opportunities that found the channel empty (message lost to a fault)")
	ins.entries = r.Counter("sim_cs_entries_total", "critical-section entries")
	ins.requests = r.Counter("sim_requests_total", "client CS requests")
	ins.releases = r.Counter("sim_releases_total", "client CS releases")
	ins.repairs = r.Counter("sim_level1_repairs_total", "level-1 wrapper in-place repairs")
	ins.events = r.Counter("sim_events_total", "simulator events processed")
	ins.simTime = r.Gauge("sim_time", "current virtual time")
	ins.entryGap = r.Histogram("sim_entry_gap_ticks", "virtual ticks between consecutive CS entries",
		[]int64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000})
	ins.kindDetail = [4]string{"invalid", "request", "reply", "release"}
	return ins
}

// kindSlot maps a message kind to its counter slot (0 for invalid kinds).
func kindSlot(k tme.Kind) int {
	if k == tme.Request || k == tme.Reply || k == tme.Release {
		return int(k)
	}
	return 0
}

// New constructs a simulator from cfg. It panics only on a nil NewNode or
// non-positive N (programming errors, not runtime conditions).
func New(cfg Config) *Sim {
	if cfg.N < 1 || cfg.NewNode == nil {
		panic("sim: Config.N and Config.NewNode are required")
	}
	c := cfg.withDefaults()
	core := engine.New(c.Seed)
	mesh := engine.NewMesh[tme.Message](core, c.N, c.MinDelay, c.MaxDelay, evDeliver)
	s := &Sim{
		cfg:      c,
		core:     core,
		mesh:     mesh,
		procs:    make([]wrapper.Process, c.N),
		net:      mesh.Net(),
		lastReq:  make([]int64, c.N),
		moved:    make([]uint64, (c.N+63)/64),
		movedAll: true,
	}
	s.ins = newInstruments(c.Obs)
	core.SetHandler(s.dispatch)
	core.SetAfterEvent(s.afterEvent)
	if c.Workload && c.MaxRequests > 0 {
		// One entry per granted request is the common shape; pre-sizing
		// keeps append from reallocating on the hot path.
		s.metrics.Entries = make([]Entry, 0, c.N*c.MaxRequests)
	}
	for i := range s.procs {
		s.procs[i] = wrapper.NewProcess(c.NewNode(i, c.N), c.Level1, nil, 0)
		s.lastReq[i] = -1
	}
	if c.NewWrapper != nil {
		s.queued = make([]bool, c.N)
		for i := range s.procs {
			w := c.NewWrapper(i)
			// The eager W (δ = 0, or no timeout at all) is evaluated every
			// tick of a hungry stretch.
			s.procs[i] = wrapper.NewProcess(s.procs[i].Node(), c.Level1,
				wrapper.InstrumentLevel2(c.Obs, i, w), max(wrapper.Timeout(w), 1))
		}
	}
	if c.Workload {
		core.Stream(clientStream, &s.client)
		s.drivers = make([]workload.Driver, c.N)
		for i := range s.drivers {
			var draws workload.Client = uniformClient{s}
			if c.NewClient != nil {
				draws = c.NewClient(i)
			}
			s.drivers[i] = workload.NewDriver(draws, 1, 0, c.MaxRequests, 1, 0)
			s.look(i) // arms the first think
		}
	}
	return s
}

// SetObserver installs the per-event observer (nil to remove).
func (s *Sim) SetObserver(o Observer) { s.observer = o }

// SetEntryHook installs a callback fired on every CS entry (nil to
// remove). The sharded coordinator harvests entries through it; during a
// shard window the hook must touch only shard-confined state.
func (s *Sim) SetEntryHook(fn func(node int, t int64)) { s.onEntry = fn }

// SetReleaseHook installs a callback fired on every release event —
// including releases a fault already emptied (the node is free either
// way, which is what a coordinator needs to know). Same confinement rule
// as SetEntryHook.
func (s *Sim) SetReleaseHook(fn func(node int, t int64)) { s.onRelease = fn }

// RequestAt schedules node i's "Request CS" action at absolute virtual
// time t (clamped to now for past times), as a typed event. External
// coordinators use it to admit arrivals into a barrier window.
func (s *Sim) RequestAt(t int64, i int) {
	d := t - s.core.Now()
	if d < 0 {
		d = 0
	}
	s.core.Schedule(d, evRequest, int32(i), 0)
}

// ReleaseAt schedules node i's "Release CS" action at absolute virtual
// time t (clamped to now), as a typed event.
func (s *Sim) ReleaseAt(t int64, i int) {
	d := t - s.core.Now()
	if d < 0 {
		d = 0
	}
	s.core.Schedule(d, evRelease, int32(i), 0)
}

// Now returns the current virtual time.
func (s *Sim) Now() int64 { return s.core.Now() }

// Node returns process i.
func (s *Sim) Node(i int) tme.Node { return s.procs[i].Node() }

// N returns the number of processes.
func (s *Sim) N() int { return s.cfg.N }

// Net exposes the channel mesh for fault injection.
func (s *Sim) Net() *channel.Net[tme.Message] { return s.net }

// Core returns the underlying engine core (the generic fault surface and
// tests schedule through it).
func (s *Sim) Core() *engine.Core { return s.core }

// Metrics returns the accumulated metrics.
func (s *Sim) Metrics() *Metrics { return &s.metrics }

// Obs returns the run's observability bundle (nil when disabled). The
// fault injector and spec monitors publish through it so that one handle
// collects the whole run.
func (s *Sim) Obs() *obs.Obs { return s.cfg.Obs }

// Stop ends the run after the current event.
func (s *Sim) Stop() { s.core.Stop() }

// dirtyNode adds process i to the moved set.
func (s *Sim) dirtyNode(i int) { s.moved[i>>6] |= 1 << (uint(i) & 63) }

// dirtyAll makes the moved set read "all": an At closure (fault
// injection, tests) may have written any node behind the simulator's back.
func (s *Sim) dirtyAll() { s.movedAll = true }

// Moved drains the moved set: it appends to dst, in ascending order and
// once each, every process the simulator may have written since the
// previous drain, and empties the set. all reports that the simulator
// cannot tell (an At closure ran, or Run was entered, since the previous
// drain), and then ids lists every process. The set has one reader: an
// observer that drains it on every observation sees each write exactly
// once, and a second reader would see only what moved since the first.
func (s *Sim) Moved(dst []int) (ids []int, all bool) {
	if all = s.movedAll; all {
		s.movedAll = false
		clear(s.moved)
		for i := range s.procs {
			dst = append(dst, i)
		}
		return dst, true
	}
	for w, word := range s.moved {
		if word == 0 {
			continue
		}
		s.moved[w] = 0
		for ; word != 0; word &= word - 1 {
			dst = append(dst, w<<6|bits.TrailingZeros64(word))
		}
	}
	return dst, false
}

// At schedules fn at absolute virtual time t (clamped to now for past
// times). Fault injectors and tests use it to place faults precisely. This
// is the rare-path escape hatch: it allocates a closure and makes the
// moved set read "all" when it runs, so recurring occurrences use typed
// events instead.
func (s *Sim) At(t int64, fn func(s *Sim)) {
	s.core.At(t, func() { fn(s) })
}

// send routes msgs into the network, scheduling deliveries. fromWrapper
// attributes the messages in the metrics.
func (s *Sim) send(msgs []tme.Message, fromWrapper bool) {
	for _, m := range msgs {
		if m.From < 0 || m.From >= s.cfg.N || m.To < 0 || m.To >= s.cfg.N || m.From == m.To {
			continue
		}
		delay, _ := s.mesh.Send(m.From, m.To, m)
		slot := kindSlot(m.Kind)
		s.metrics.kindCounts[slot]++
		if fromWrapper {
			s.metrics.WrapperMsgs++
		} else {
			s.metrics.ProgramMsgs++
		}
		s.ins.trace.Emit(obs.Event{
			Time: s.core.Now(), Kind: obs.EvSend, A: m.From, B: m.To, N: int(delay),
			Detail: s.ins.kindDetail[slot],
		})
	}
}

// ScheduleDelivery schedules one head-of-channel delivery on ep after the
// given delay. The fault injector calls this when it duplicates a message,
// so the extra copy has a delivery opportunity.
func (s *Sim) ScheduleDelivery(ep channel.Endpoint, delay int64) {
	s.mesh.ScheduleDelivery(ep, delay)
}

// deliver pops the channel head (if any) into the destination process.
func (s *Sim) deliver(ep channel.Endpoint) {
	m, ok := s.mesh.Recv(ep)
	if !ok {
		s.ins.lost.Inc()
		return // lost to a fault; the delivery opportunity passes
	}
	s.metrics.Delivered++
	s.ins.trace.Emit(obs.Event{Time: s.core.Now(), Kind: obs.EvDeliver, A: ep.Src, B: ep.Dst})
	s.absorb(ep.Dst, s.procs[ep.Dst].Deliver(m, s.core.Now()))
}

// absorb carries one outcome of process i's step into the simulation: a
// write into the moved set, the messages into the mesh, a level-1 repair
// and a CS entry into the metrics and hooks.
func (s *Sim) absorb(i int, o wrapper.Outcome) {
	if o.Wrote {
		s.dirtyNode(i)
	}
	s.send(o.Program, false)
	s.send(o.Wrapper, true)
	now := s.core.Now()
	if o.Repaired {
		s.ins.repairs.Inc()
		s.ins.trace.Emit(obs.Event{Time: now, Kind: obs.EvRepair, A: i, B: -1})
	}
	if !o.Entered {
		return
	}
	s.metrics.Entries = append(s.metrics.Entries, Entry{
		Time: now, ID: i, REQ: s.procs[i].Node().REQ(),
	})
	s.ins.entries.Inc()
	s.ins.conv.RecordProgress(now)
	s.ins.trace.Emit(obs.Event{Time: now, Kind: obs.EvProgress, A: i, B: -1, Detail: "cs-entry"})
	if s.ins.entryGap != nil {
		if s.ins.haveEntry {
			s.ins.entryGap.Observe(now - s.ins.lastEntry)
		}
		s.ins.lastEntry, s.ins.haveEntry = now, true
	}
	lat := int64(-1)
	if s.lastReq[i] >= 0 {
		lat = now - s.lastReq[i]
		s.lastReq[i] = -1
	}
	s.ins.fair.RecordEntry(i, lat)
	if s.onEntry != nil {
		s.onEntry(i, now)
	}
}

// clientStream names the core stream the built-in client draws from.
const clientStream = "sim.client"

// uniformClient is the built-in client's draw stream: think uniform on
// [ThinkMin, ThinkMax] from the run's clientStream, shared by every
// process's client, hold EatTime.
type uniformClient struct{ s *Sim }

func (u uniformClient) NextThink() int64 {
	c := &u.s.cfg
	return c.ThinkMin + u.s.client.Rand().Int63n(c.ThinkMax-c.ThinkMin+1)
}
func (u uniformClient) NextHold() int64      { return u.s.cfg.EatTime }
func (uniformClient) NextResource(n int) int { return 0 }
func (uniformClient) Open() bool             { return false }
func (uniformClient) Cohort() string         { return "uniform" }

// look steps node i's client until it has nothing more to do now. The
// simulator has no blocking wait, so the client's "await" is a look after
// every event that can write the node: a delivery, a request, a release, a
// fault closure with its level-1 repair, and the client's own deadlines.
func (s *Sim) look(i int) {
	if s.drivers == nil {
		return
	}
	d := &s.drivers[i]
	for {
		now := s.core.Now()
		switch d.Step(now, s.procs[i].Node().Phase()) {
		case workload.ActRequest:
			s.request(i)
		case workload.ActRelease:
			s.release(i)
		case workload.ActSleep:
			after := d.Wake() - now
			if after < 0 {
				after = 0 // an open-loop arrival that fell due while the client was busy
			}
			s.core.Schedule(after, evClientTimer, int32(i), 0)
			return
		case workload.ActIdle, workload.ActAwait, workload.ActPark:
			return
		}
	}
}

// request performs the client "Request CS" action at node i if thinking.
func (s *Sim) request(i int) {
	o := s.procs[i].Request(s.core.Now())
	if !o.Wrote {
		return
	}
	s.metrics.Requests++
	s.lastReq[i] = s.core.Now()
	s.absorb(i, o)
}

// release performs the client "Release CS" action at node i if eating.
func (s *Sim) release(i int) {
	if s.onRelease != nil {
		s.onRelease(i, s.core.Now())
	}
	o := s.procs[i].Release(s.core.Now())
	if !o.Wrote {
		return // a fault moved the phase; nothing to release
	}
	s.metrics.Releases++
	s.absorb(i, o)
}

// Request asks node i to request the CS now (manual workload control for
// examples and tests). It is a no-op unless the node is thinking.
func (s *Sim) Request(i int) { s.core.Schedule(0, evRequest, int32(i), 0) }

// Release asks node i to release the CS now.
func (s *Sim) Release(i int) { s.core.Schedule(0, evRelease, int32(i), 0) }

// arm queues node i's evWrapperDeadline for its process's armed deadline.
// At most one is queued per process: a deadline disarmed or re-armed later
// since is settled when its event pops (deadline), so the engine needs no
// cancel.
func (s *Sim) arm(i int) {
	if s.queued == nil || s.queued[i] {
		return
	}
	if due := s.procs[i].Due(); due >= 0 {
		s.queued[i] = true
		s.core.Schedule(due-s.core.Now(), evWrapperDeadline, int32(i), 0)
	}
}

// deadline handles node i's popped deadline event: the process fires W' if
// its deadline fell due, and the event is re-queued for the deadline the
// process then holds, or dropped when it holds none.
func (s *Sim) deadline(i int) {
	now := s.core.Now()
	o := s.procs[i].Deadline(now)
	s.absorb(i, o)
	if o.Due < 0 {
		s.queued[i] = false
		return
	}
	s.core.Schedule(o.Due-now, evWrapperDeadline, int32(i), 0)
}

// settle follows an event that could have written node i: its client looks
// at it, and then, since the client may have requested, the W' deadline is
// queued.
func (s *Sim) settle(i int) {
	s.look(i)
	s.arm(i)
}

// resync feeds process i the input that says a fault wrote it outside its
// step: level-1 repairs it and its deadline is re-read.
func (s *Sim) resync(i int) {
	s.absorb(i, s.procs[i].Corrupt(nil, s.core.Now()))
}

// dispatch executes one engine event record, then settles every node the
// event could have written.
func (s *Sim) dispatch(ev *engine.Event) {
	switch ev.Kind {
	case evDeliver:
		s.deliver(channel.Endpoint{Src: int(ev.A), Dst: int(ev.B)})
		s.settle(int(ev.B))
	case evClientTimer:
		s.settle(int(ev.A))
	case evWrapperDeadline:
		s.deadline(int(ev.A))
	case evRequest:
		s.request(int(ev.A))
		s.settle(int(ev.A))
	case evRelease:
		s.release(int(ev.A))
		s.settle(int(ev.A))
	default:
		s.publish() // the closure is user code and may read the counters
		ev.Call()
		// The closure may have written any node (fault injection does
		// exactly that), so every process has moved, and a corrupted node
		// is repaired now: a quiescent one has no other event to repair
		// it at.
		s.dirtyAll()
		for i := range s.procs {
			s.resync(i)
			s.settle(i)
		}
	}
}

// afterEvent is the engine's per-event hook: metrics and the observer.
func (s *Sim) afterEvent() {
	s.metrics.Events++
	if s.observer != nil {
		s.observer(s)
	}
}

// Run processes events until the queue drains, time exceeds horizon, or
// Stop is called. It returns the number of events processed in this call.
func (s *Sim) Run(horizon int64) int64 {
	// State may have been written directly between Run calls (tests poke
	// channels and nodes through Net, Node and the fault surface): every
	// process has moved, is repaired, and has its W' deadline re-read.
	s.dirtyAll()
	for i := range s.procs {
		s.resync(i)
		s.arm(i)
	}
	n := s.core.Run(horizon)
	s.publish()
	return n
}

// publish brings the obs counters that shadow Metrics, the sim_time gauge
// and the fairness gauges up to date. The event loop counts in Metrics
// only (plain fields, no atomics), so this runs wherever user code can
// look at the registry: when Run returns, before an At closure, and at the
// end of Sharded.Run. Counters only move forward, so each is raised by
// what Metrics gained since the last call.
func (s *Sim) publish() {
	ins := &s.ins
	if ins.obs == nil {
		return
	}
	m, p := &s.metrics, &ins.published
	for k := range m.kindCounts {
		ins.byKind[k].Add(int64(m.kindCounts[k] - p.kindCounts[k]))
	}
	ins.progMsgs.Add(int64(m.ProgramMsgs - p.ProgramMsgs))
	ins.wrapMsgs.Add(int64(m.WrapperMsgs - p.WrapperMsgs))
	ins.delivered.Add(int64(m.Delivered - p.Delivered))
	ins.requests.Add(int64(m.Requests - p.Requests))
	ins.releases.Add(int64(m.Releases - p.Releases))
	ins.events.Add(m.Events - p.Events)
	*p = *m
	p.Entries = nil // only the counts are compared; do not pin the log
	ins.simTime.Set(s.core.Now())
	ins.fair.Publish()
}

// Snapshot captures the global state for spec monitors.
func (s *Sim) Snapshot() GlobalState {
	var g GlobalState
	s.SnapshotInto(&g)
	return g
}

// SnapshotInto fills g with the current global state, reusing g's slices.
// Observers that snapshot on every event keep one GlobalState current
// instead, re-reading only the processes Moved names.
func (s *Sim) SnapshotInto(g *GlobalState) {
	g.Time = s.core.Now()
	g.Reserve(s.cfg.N)
	for i := range s.procs {
		tme.SnapshotInto(s.procs[i].Node(), &g.Nodes[i])
	}
	g.InFlight = g.InFlight[:0]
	for _, ep := range s.endpoints() {
		s.net.Chan(ep.Src, ep.Dst).Each(func(m tme.Message) { g.InFlight = append(g.InFlight, m) })
	}
}

// Reserve sizes g.Nodes for n processes. When it must allocate, it carves
// every node's Local and Received from one block each, sized for the
// processes' n-entry views, so the snapshots that fill them allocate
// nothing more.
func (g *GlobalState) Reserve(n int) {
	if cap(g.Nodes) >= n {
		g.Nodes = g.Nodes[:n]
		return
	}
	g.Nodes = make([]tme.SpecState, n)
	local, received := make([]ltime.Timestamp, n*n), make([]bool, n*n)
	for i := range g.Nodes {
		g.Nodes[i].Local = local[i*n : i*n : (i+1)*n]
		g.Nodes[i].Received = received[i*n : i*n : (i+1)*n]
	}
}

// endpoints caches the deterministic endpoint order.
func (s *Sim) endpoints() []channel.Endpoint {
	return s.mesh.Endpoints()
}

// String summarizes the run for logs.
func (s *Sim) String() string {
	return fmt.Sprintf("sim{n=%d t=%d entries=%d msgs=%d+%d}",
		s.cfg.N, s.core.Now(), len(s.metrics.Entries), s.metrics.ProgramMsgs, s.metrics.WrapperMsgs)
}
