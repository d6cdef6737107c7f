// Package fault injects the TME fault model of DSN 2001 §3.1 into a
// simulation: messages corrupted, lost, or duplicated at any time; process
// and channel state transiently (and arbitrarily) corrupted; improper
// initialization. All choices are drawn from seeded streams, so a faulty
// run remains a deterministic function of its seeds. The injector draws
// fault classes and fault details from two separate streams, so the class
// sequence of a run is fixed by the seed alone, whatever state the faults
// find.
//
// The injector targets engine.Surface — the substrate-agnostic fault
// surface — so one Mix drives faults into every engine-backed system: the
// TME simulator, the token-circulation ring, and the Dijkstra token-ring
// daemon. What a corrupted message or a perturbed process becomes is the
// substrate's FaultCorrupt/FaultPerturb; the TME substrates (simulator and
// live chaos proxy) draw it from tme.CorruptMessage and tme.RandomCorruption.
//
// Faults are transient and finite in number — exactly the premise under
// which stabilization is claimed. The injector never touches anything after
// its last scheduled burst, so "convergence time after the last fault" is
// well defined.
package fault

import (
	"math/rand"

	"github.com/graybox-stabilization/graybox/internal/channel"
	"github.com/graybox-stabilization/graybox/internal/engine"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/seeded"
)

// Surface is the fault surface the injector drives — engine.Surface,
// re-exported so callers can read the contract where the injector lives.
type Surface = engine.Surface

// Kind enumerates the fault classes of the paper's fault model.
type Kind int

// Fault classes. Dispatch over them (Apply, the mix normalizer) must be
// total: a class added here and missed there would silently never fire.
//
//gblint:kindset fault-kind
const (
	// MessageLoss drops one in-flight message.
	MessageLoss Kind = iota + 1
	// MessageDup duplicates one in-flight message.
	MessageDup
	// MessageCorrupt overwrites fields of one in-flight message.
	MessageCorrupt
	// StateCorrupt transiently corrupts one process's state.
	StateCorrupt
	// ChannelFlush empties one channel (modelling channel failure).
	ChannelFlush
)

// String names the fault class.
func (k Kind) String() string {
	switch k {
	case MessageLoss:
		return "loss"
	case MessageDup:
		return "dup"
	case MessageCorrupt:
		return "corrupt"
	case StateCorrupt:
		return "state"
	case ChannelFlush:
		return "flush"
	default:
		return "unknown"
	}
}

// Mix weights the fault classes within a burst. Zero weights exclude a
// class; an all-zero Mix defaults to uniform over all classes.
type Mix struct {
	Loss, Dup, Corrupt, State, Flush int
}

// DefaultMix exercises every fault class equally.
var DefaultMix = Mix{Loss: 1, Dup: 1, Corrupt: 1, State: 1, Flush: 1}

func (m Mix) total() int { return m.Loss + m.Dup + m.Corrupt + m.State + m.Flush }

// Pick draws a fault class according to the weights. Exported so
// schedule generators (internal/wire's pre-drawn live schedules) share the
// injector's exact weighting.
func (m Mix) Pick(rng *rand.Rand) Kind {
	if m.total() == 0 {
		m = DefaultMix
	}
	r := rng.Intn(m.total())
	switch {
	case r < m.Loss:
		return MessageLoss
	case r < m.Loss+m.Dup:
		return MessageDup
	case r < m.Loss+m.Dup+m.Corrupt:
		return MessageCorrupt
	case r < m.Loss+m.Dup+m.Corrupt+m.State:
		return StateCorrupt
	default:
		return ChannelFlush
	}
}

// Injector applies faults to a simulation. Construct with NewInjector.
type Injector struct {
	pick  seeded.Stream // fault classes (Mix.Pick)
	aim   seeded.Stream // fault details: victim, damage, redelivery delay
	mix   Mix
	count int
	// candidates is nonEmptyChannel's scratch list, reused across calls.
	candidates []channel.Endpoint

	// obs instruments, bound lazily to the first simulation seen (nil
	// fields when that simulation runs without observability).
	bound   bool
	cFaults *obs.Counter
	cByKind [6]*obs.Counter // indexed by Kind
	trace   *obs.Trace
	conv    *obs.Convergence
}

// kindLabels are static trace labels, one per fault class.
var kindLabels = [6]string{"", "loss", "dup", "corrupt", "state", "flush"}

// bind caches the simulation's obs handles on first use.
func (in *Injector) bind(s Surface) {
	if in.bound {
		return
	}
	in.bound = true
	o := s.Obs()
	if o == nil {
		return
	}
	r := o.Registry()
	in.cFaults = r.Counter("fault_injected_total", "faults injected")
	in.cByKind[MessageLoss] = r.Counter("fault_loss_total", "message-loss faults")
	in.cByKind[MessageDup] = r.Counter("fault_dup_total", "message-duplication faults")
	in.cByKind[MessageCorrupt] = r.Counter("fault_corrupt_total", "message-corruption faults")
	in.cByKind[StateCorrupt] = r.Counter("fault_state_total", "process-state corruptions")
	in.cByKind[ChannelFlush] = r.Counter("fault_flush_total", "channel flushes")
	in.trace = o.Tracer()
	in.conv = o.Convergence()
}

// The injector's two streams, derived from its seed.
const (
	pickStream = "fault.pick"
	aimStream  = "fault.aim"
)

// NewInjector returns an injector drawing from the given seed and mix.
func NewInjector(seed int64, mix Mix) *Injector {
	in := &Injector{mix: mix}
	in.pick.Init(seeded.Derive(seed, pickStream))
	in.aim.Init(seeded.Derive(seed, aimStream))
	return in
}

// Count returns how many faults have been applied so far.
func (in *Injector) Count() int { return in.count }

// Burst applies n faults to s immediately (at the current virtual time).
func (in *Injector) Burst(s Surface, n int) {
	for i := 0; i < n; i++ {
		in.one(s)
	}
}

// Schedule arranges count faults at each of the given times.
func (in *Injector) Schedule(s Surface, times []int64, countPerBurst int) {
	for _, t := range times {
		t := t
		s.Core().At(t, func() { in.Burst(s, countPerBurst) })
	}
}

// one applies a single randomly chosen fault.
func (in *Injector) one(s Surface) {
	in.Apply(s, in.mix.Pick(in.pick.Rand()))
}

// Apply applies one fault of class kind to s, drawing the fault's details
// (which channel, which message, what damage) from the injector's detail
// stream. This is the entry point for pre-drawn schedules —
// internal/wire's live fault schedules fix the kind sequence up front and
// Apply each one at its wall-clock offset.
func (in *Injector) Apply(s Surface, kind Kind) {
	if kind < MessageLoss || kind > ChannelFlush {
		return
	}
	in.bind(s)
	in.count++
	switch kind {
	case MessageLoss:
		in.loss(s)
	case MessageDup:
		in.dup(s)
	case MessageCorrupt:
		in.corrupt(s)
	case StateCorrupt:
		in.state(s)
	case ChannelFlush:
		in.flush(s)
	}
	in.cFaults.Inc()
	in.cByKind[kind].Inc()
	in.conv.RecordFault(s.Now())
	in.trace.Emit(obs.Event{
		Time: s.Now(), Kind: obs.EvFault, A: -1, B: -1, Detail: kindLabels[kind],
	})
}

// nonEmptyChannel picks a uniformly random non-empty channel, or ok=false
// when all channels are empty. The channels are read once, into the
// injector's scratch list: on a live surface a queue can drain between two
// looks, so a count followed by a rescan could pick differently.
func (in *Injector) nonEmptyChannel(s Surface) (channel.Endpoint, bool) {
	candidates := in.candidates[:0]
	for _, ep := range s.Channels() {
		if s.QueueLen(ep) > 0 {
			candidates = append(candidates, ep)
		}
	}
	in.candidates = candidates
	if len(candidates) == 0 {
		return channel.Endpoint{}, false
	}
	return candidates[in.aim.Rand().Intn(len(candidates))], true
}

// victim picks a uniformly random in-flight message: a non-empty channel
// and an index into its queue. On a live surface the queue can drain
// between the two looks; then there is nothing to hit (ok=false).
func (in *Injector) victim(s Surface) (ep channel.Endpoint, i int, ok bool) {
	ep, ok = in.nonEmptyChannel(s)
	if !ok {
		return ep, 0, false
	}
	n := s.QueueLen(ep)
	if n == 0 {
		return ep, 0, false
	}
	return ep, in.aim.Rand().Intn(n), true
}

func (in *Injector) loss(s Surface) {
	if ep, i, ok := in.victim(s); ok {
		s.FaultDrop(ep, i)
	}
}

func (in *Injector) dup(s Surface) {
	ep, i, ok := in.victim(s)
	if !ok {
		return
	}
	// The copy needs its own delivery opportunity.
	s.FaultDuplicate(ep, i, 1+in.aim.Rand().Int63n(5))
}

func (in *Injector) corrupt(s Surface) {
	if ep, i, ok := in.victim(s); ok {
		s.FaultCorrupt(ep, i, in.aim.Rand())
	}
}

func (in *Injector) state(s Surface) {
	rng := in.aim.Rand()
	s.FaultPerturb(rng.Intn(s.N()), rng)
}

func (in *Injector) flush(s Surface) {
	ep, ok := in.nonEmptyChannel(s)
	if !ok {
		return
	}
	s.FaultFlush(ep)
}

// DropAllInFlight flushes every channel — the paper's §4 deadlock scenario
// generator when applied while requests are in flight.
func DropAllInFlight(s Surface) {
	for _, ep := range s.Channels() {
		s.FaultFlush(ep)
	}
	if o := s.Obs(); o != nil {
		// Registration is owned by bind (each metric name has exactly one
		// registration site); a throwaway injector reuses those instruments
		// through the registry's idempotent lookup.
		var in Injector
		in.bind(s)
		in.cByKind[ChannelFlush].Inc()
		in.cFaults.Inc()
		o.Convergence().RecordFault(s.Now())
		o.Tracer().Emit(obs.Event{
			Time: s.Now(), Kind: obs.EvFault, A: -1, B: -1, Detail: "drop-all-in-flight",
		})
	}
}
