package ring

import (
	"github.com/graybox-stabilization/graybox/internal/channel"
	"github.com/graybox-stabilization/graybox/internal/engine"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/seeded"
)

// The ring's typed engine event kinds. The dispatch switch routes every
// other kind to the event's closure, but each declared kind needs its arm.
//
//gblint:kindset ring-ev
const (
	// kindDeliver pops the head of link a→b into node b.
	kindDeliver uint8 = iota + 1
	// kindTick advances the per-tick machinery: node forwarding, the
	// regenerator wrapper, dead-tick accounting.
	kindTick
)

// Per-hop link delay bounds, in ticks.
const minDelay, maxDelay = 1, 3

// SimConfig parameterizes a ring simulation.
type SimConfig struct {
	// N is the ring size (≥ 2).
	N int
	// Seed drives link delays.
	Seed int64
	// NewNode constructs each process (required); see NewEager, NewLazy.
	NewNode func(id, n int) Node
	// WrapperDelta, when > 0, attaches the Regenerator wrapper to
	// process 0 with that timeout.
	WrapperDelta int
	// Obs, when non-nil, receives ring metrics and trace events alongside
	// the in-struct Metrics (which stay authoritative for existing callers).
	Obs *obs.Obs
}

// Metrics accumulates ring counters.
type Metrics struct {
	// Accepts[i] counts accepted token deliveries at process i.
	Accepts []int
	// Discards counts deliveries rejected by Accept Spec (stale tokens).
	Discards int
	// Regenerations counts wrapper-created tokens.
	Regenerations int
	// DeadTicks counts ticks with no live token anywhere.
	DeadTicks int64
}

// Sim is a deterministic ring simulator on the shared discrete-event
// engine: token deliveries are typed engine events due after sampled link
// delays, and the per-tick machinery (forwarding, the wrapper, dead-tick
// accounting) is a recurring tick event. Construct with NewSim.
type Sim struct {
	cfg     SimConfig
	core    *engine.Core
	mesh    *engine.Mesh[Token]
	forge   seeded.Stream // ForgeHolders' picks (forgeStream)
	nodes   []Node
	eps     []channel.Endpoint // the n ring links i → (i+1) mod n
	wrapper *Regenerator
	metrics Metrics
	ins     ringInstruments
}

// ringInstruments mirrors Metrics into an obs registry; all fields are nil
// (no-op) when the simulation runs without observability.
type ringInstruments struct {
	accepts   *obs.Counter
	discards  *obs.Counter
	regens    *obs.Counter
	deadTicks *obs.Counter
	sends     *obs.Counter
	time      *obs.Gauge
	trace     *obs.Trace
}

func newRingInstruments(o *obs.Obs) ringInstruments {
	if o == nil {
		return ringInstruments{}
	}
	r := o.Registry()
	return ringInstruments{
		accepts:   r.Counter("ring_accepts_total", "accepted token deliveries"),
		discards:  r.Counter("ring_discards_total", "deliveries rejected by Accept Spec"),
		regens:    r.Counter("ring_regenerations_total", "wrapper-created tokens"),
		deadTicks: r.Counter("ring_dead_ticks_total", "ticks with no live token"),
		sends:     r.Counter("ring_sends_total", "tokens put on links"),
		time:      r.Gauge("ring_time", "current tick"),
		trace:     o.Tracer(),
	}
}

// NewSim builds a ring simulation. It panics on an invalid configuration
// (programming error).
func NewSim(cfg SimConfig) *Sim {
	if cfg.N < 2 || cfg.NewNode == nil {
		panic("ring: SimConfig.N ≥ 2 and NewNode are required")
	}
	core := engine.New(cfg.Seed)
	s := &Sim{
		cfg:   cfg,
		core:  core,
		mesh:  engine.NewMesh[Token](core, cfg.N, minDelay, maxDelay, kindDeliver),
		nodes: make([]Node, cfg.N),
		eps:   make([]channel.Endpoint, cfg.N),
		metrics: Metrics{
			Accepts: make([]int, cfg.N),
		},
	}
	core.Stream(forgeStream, &s.forge)
	core.SetHandler(s.dispatch)
	s.ins = newRingInstruments(cfg.Obs)
	for i := range s.nodes {
		s.nodes[i] = cfg.NewNode(i, cfg.N)
		s.eps[i] = channel.Endpoint{Src: i, Dst: (i + 1) % cfg.N}
	}
	if cfg.WrapperDelta > 0 {
		s.wrapper = NewRegenerator(cfg.WrapperDelta)
	}
	// Seed the ring: process 0 starts with the first token.
	s.nodes[0].Accept(Token{Seq: 1})
	s.metrics.Accepts[0]++
	s.ins.accepts.Inc()
	// The first tick fires at t=1; each tick re-arms the next, after its
	// sends, so every delivery due at t+1 precedes tick t+1 in seq order —
	// deliveries before node steps within a tick, as the ring's round
	// structure requires.
	core.Schedule(1, kindTick, 0, 0)
	return s
}

// Now returns the current tick.
func (s *Sim) Now() int64 { return s.core.Now() }

// Node returns process i.
func (s *Sim) Node(i int) Node { return s.nodes[i] }

// Metrics returns the accumulated counters.
func (s *Sim) Metrics() *Metrics { return &s.metrics }

// send puts a token on link i with a sampled delay.
func (s *Sim) send(i int, t Token) {
	dst := (i + 1) % s.cfg.N
	s.mesh.Send(i, dst, t)
	s.ins.sends.Inc()
	if s.ins.trace != nil {
		s.ins.trace.Emit(obs.Event{Time: s.Now(), Kind: obs.EvSend, A: i, B: dst, N: int(t.Seq)})
	}
}

// deliver pops the head of link src→dst into node dst.
func (s *Sim) deliver(src, dst int) {
	t, ok := s.mesh.Recv(channel.Endpoint{Src: src, Dst: dst})
	if !ok {
		return // lost to a fault; the delivery opportunity passes
	}
	if s.nodes[dst].Accept(t) {
		s.metrics.Accepts[dst]++
		s.ins.accepts.Inc()
		if s.ins.trace != nil {
			s.ins.trace.Emit(obs.Event{Time: s.Now(), Kind: obs.EvDeliver, A: src, B: dst, N: int(t.Seq)})
		}
	} else {
		s.metrics.Discards++
		s.ins.discards.Inc()
		if s.ins.trace != nil {
			s.ins.trace.Emit(obs.Event{Time: s.Now(), Kind: obs.EvDrop, A: src, B: dst, N: int(t.Seq), Detail: "stale"})
		}
	}
}

// tick runs the per-tick machinery: node forwarding in index order, the
// wrapper at process 0, and dead-tick accounting. It re-arms
// the next tick last, so deliveries at t+1 outrank it in seq order.
func (s *Sim) tick() {
	now := s.Now()
	for i, nd := range s.nodes {
		if t := nd.Tick(); t != nil {
			s.send(i, *t)
		}
	}
	// Wrapper at process 0.
	if s.wrapper != nil {
		if t := s.wrapper.Observe(s.nodes[0]); t != nil {
			s.metrics.Regenerations++
			s.ins.regens.Inc()
			if s.ins.trace != nil {
				s.ins.trace.Emit(obs.Event{Time: now, Kind: obs.EvWrapperFire, A: 0, B: -1, N: int(t.Seq), Detail: "regenerate"})
			}
			if s.nodes[0].Accept(*t) {
				s.metrics.Accepts[0]++
				s.ins.accepts.Inc()
			}
		}
	}
	if s.LiveTokens() == 0 {
		s.metrics.DeadTicks++
		s.ins.deadTicks.Inc()
	}
	s.ins.time.Set(now)
	s.core.Schedule(1, kindTick, 0, 0)
}

// dispatch executes one engine event record.
func (s *Sim) dispatch(ev *engine.Event) {
	switch ev.Kind {
	case kindDeliver:
		s.deliver(int(ev.A), int(ev.B))
	case kindTick:
		s.tick()
	default:
		ev.Call()
	}
}

// Tick advances the simulation one tick: deliver due tokens, tick nodes,
// run the wrapper.
func (s *Sim) Tick() { s.core.Run(s.Now() + 1) }

// Run advances the simulation by ticks ticks.
func (s *Sim) Run(ticks int64) { s.core.Run(s.Now() + ticks) }

// LiveTokens counts tokens that still matter: processes currently holding,
// plus in-flight tokens that would be accepted at their destination today.
func (s *Sim) LiveTokens() int {
	live := 0
	for _, nd := range s.nodes {
		if nd.Holding() {
			live++
		}
	}
	for _, ep := range s.eps {
		seq := s.nodes[ep.Dst].Seq()
		s.mesh.Net().Chan(ep.Src, ep.Dst).Each(func(t Token) {
			if t.Seq > seq {
				live++
			}
		})
	}
	return live
}

// Holder returns the id of the (unique) holding process, or -1 when none
// or several hold.
func (s *Sim) Holder() int {
	holder := -1
	for i, nd := range s.nodes {
		if nd.Holding() {
			if holder >= 0 {
				return -1
			}
			holder = i
		}
	}
	return holder
}
