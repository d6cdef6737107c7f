package tokenring

import (
	"math/rand"

	"github.com/graybox-stabilization/graybox/internal/channel"
	"github.com/graybox-stabilization/graybox/internal/engine"
	"github.com/graybox-stabilization/graybox/internal/obs"
)

// kindDaemonStep is the recurring engine event firing one central-daemon
// move per tick.
//
//gblint:kindset tokenring-daemon
const kindDaemonStep uint8 = 1

// SimConfig parameterizes an engine-backed token-ring run.
type SimConfig struct {
	// N is the number of machines (≥ 2).
	N int
	// K is the counter modulus; default N+1 (the smallest K with
	// guaranteed stabilization).
	K int
	// Seed derives every random choice of the run: the daemon's scheduling
	// stream and the corruption stream are both engine streams of this seed.
	Seed int64
	// Obs, when non-nil, receives metrics and trace events for the run.
	Obs *obs.Obs
}

// Sim runs Dijkstra's K-state ring under a randomized central daemon as an
// engine workload: one daemon move per virtual tick, every choice drawn
// from named engine streams, so an E10 run is reproducible from
// SimConfig.Seed exactly like the message-passing substrates.
type Sim struct {
	cfg     SimConfig
	core    *engine.Core
	ring    *Ring
	daemon  Rand // engine stream: which privileged machine fires
	corrupt Rand // engine stream: transient state corruption
	moves   int
	ins     trInstruments
}

// trInstruments caches the run's obs handles (nil fields when
// observability is off).
type trInstruments struct {
	trace *obs.Trace
	conv  *obs.Convergence
	moves *obs.Counter
	time  *obs.Gauge
}

func newTRInstruments(o *obs.Obs) trInstruments {
	if o == nil {
		return trInstruments{}
	}
	r := o.Registry()
	return trInstruments{
		trace: o.Tracer(),
		conv:  o.Convergence(),
		moves: r.Counter("tokenring_moves_total", "central-daemon moves fired"),
		time:  r.Gauge("tokenring_time", "current virtual time"),
	}
}

// NewSim builds a token-ring run in the all-zero (legitimate) state. It
// panics on an invalid configuration (programming error).
func NewSim(cfg SimConfig) *Sim {
	if cfg.N < 2 {
		panic("tokenring: SimConfig.N ≥ 2 is required")
	}
	if cfg.K == 0 {
		cfg.K = cfg.N + 1
	}
	core := engine.New(cfg.Seed)
	s := &Sim{
		cfg:     cfg,
		core:    core,
		ring:    New(cfg.N, cfg.K),
		daemon:  core.Stream("tokenring.daemon"),
		corrupt: core.Stream("tokenring.corrupt"),
	}
	s.ins = newTRInstruments(cfg.Obs)
	core.SetHandler(s.dispatch)
	core.Schedule(1, kindDaemonStep, 0, 0)
	return s
}

// Ring returns the underlying protocol state.
func (s *Sim) Ring() *Ring { return s.ring }

// Moves returns the number of daemon moves fired so far.
func (s *Sim) Moves() int { return s.moves }

// Now returns the current virtual time.
func (s *Sim) Now() int64 { return s.core.Now() }

// Legitimate reports whether exactly one machine is privileged.
func (s *Sim) Legitimate() bool { return s.ring.Legitimate() }

// step fires one central-daemon move: a uniformly chosen privileged
// machine moves (at least one machine is always privileged).
func (s *Sim) step() {
	s.ring.Step(s.ring.pickPrivileged(s.daemon))
	s.moves++
	s.ins.moves.Inc()
	if s.ring.Legitimate() {
		s.ins.conv.RecordProgress(s.core.Now())
	}
	s.ins.time.Set(s.core.Now())
	s.core.Schedule(1, kindDaemonStep, 0, 0)
}

// dispatch executes one engine event record.
func (s *Sim) dispatch(ev *engine.Event) {
	switch ev.Kind {
	case kindDaemonStep:
		s.step()
	default:
		ev.Call()
	}
}

// Run advances the daemon by ticks moves.
func (s *Sim) Run(ticks int64) { s.core.Run(s.Now() + ticks) }

// Converge runs the daemon until the ring is legitimate or limit total
// moves have been made, returning the move count and whether the ring
// converged. Dijkstra's theorem: for K ≥ N, convergence always occurs.
func (s *Sim) Converge(limit int) (moves int, converged bool) {
	for s.moves < limit {
		if s.ring.Legitimate() {
			return s.moves, true
		}
		s.core.Run(s.Now() + 1)
	}
	return s.moves, s.ring.Legitimate()
}

// CorruptAll assigns arbitrary counters to every machine (transient
// whole-ring state corruption), drawn from the run's corruption stream.
func (s *Sim) CorruptAll() {
	s.ring.Corrupt(s.corrupt)
	s.ins.conv.RecordFault(s.Now())
	if s.ins.trace != nil {
		s.ins.trace.Emit(obs.Event{Time: s.Now(), Kind: obs.EvFault, A: -1, B: -1, Detail: "corrupt-all"})
	}
}

// --- engine.Surface ----------------------------------------------------
//
// The token ring is a shared-memory protocol: it has no channels, so the
// message-fault methods report "not applicable" and only state
// perturbation lands. One fault.Mix thereby drives all three substrates;
// on this one, only its State weight has effect.

// N returns the number of machines.
func (s *Sim) N() int { return s.cfg.N }

// Obs returns the run's observability bundle (nil when disabled).
func (s *Sim) Obs() *obs.Obs { return s.cfg.Obs }

// Core returns the underlying engine core.
func (s *Sim) Core() *engine.Core { return s.core }

// Channels returns nil: the token ring has no message channels.
func (s *Sim) Channels() []channel.Endpoint { return nil }

// QueueLen returns 0: no channels.
func (s *Sim) QueueLen(channel.Endpoint) int { return 0 }

// FaultDrop is not applicable (no channels).
func (s *Sim) FaultDrop(channel.Endpoint, int) bool { return false }

// FaultDuplicate is not applicable (no channels).
func (s *Sim) FaultDuplicate(channel.Endpoint, int, int64) bool { return false }

// FaultCorrupt is not applicable (no channels).
func (s *Sim) FaultCorrupt(channel.Endpoint, int, *rand.Rand) bool { return false }

// FaultPerturb overwrites machine id's counter with a value drawn from rng.
func (s *Sim) FaultPerturb(id int, rng *rand.Rand) bool {
	if id < 0 || id >= s.cfg.N {
		return false
	}
	s.ring.SetX(id, rng.Intn(s.cfg.K))
	return true
}

// FaultFlush is not applicable (no channels).
func (s *Sim) FaultFlush(channel.Endpoint) bool { return false }

var _ engine.Surface = (*Sim)(nil)
