// Package engine is the protocol-agnostic deterministic discrete-event
// core shared by every simulation substrate in the repository: the TME
// simulator (internal/sim), the token-circulation ring (internal/ring),
// and the Dijkstra token-ring daemon (internal/tokenring).
//
// The engine owns exactly the machinery the paper's experiments need to be
// reproducible and comparable across protocols:
//
//   - the virtual clock and the typed-event queue ordered by (time, seq),
//     with plain event records dispatched by the substrate's handler and a
//     closure escape hatch (At) for fault injectors and tests. The queue is
//     a 64-tick timing wheel in front of a binary heap (queue.go): link
//     delays and think times are bounded, so nearly every event is due
//     within the window and costs O(1) to push and pop, while deadlines
//     further out overflow to the heap. Pop merges the two levels on
//     (time, seq), so the order is exactly a single heap's: that order is
//     the simulator's daemon, and no run may differ by one event;
//   - named seeded streams (Stream), one per subsystem, each derived from
//     the core seed and its name. There is no master stream: the link
//     delays, the built-in client, a daemon and a fault injector each draw
//     from their own, so adding draws to one cannot move another's and a
//     run is still a pure function of one seed;
//   - the delay-sampled FIFO link mesh (Mesh) over internal/channel;
//   - the substrate-agnostic fault surface (Surface) the injector in
//     internal/fault drives, so one fault mix reaches every protocol.
//
// The engine knows nothing about protocols, wrappers, or specifications —
// gblint's layering table enforces that it never imports them. Substrates
// embed a Core, register their event kinds (small uint8 codes ≥ 1; kind 0
// is reserved for the closure escape hatch), and interpret the records in
// a handler switch, which keeps the steady-state scheduling path free of
// per-event allocations exactly as in the pre-extraction simulator.
package engine

import (
	"math/rand"

	"github.com/graybox-stabilization/graybox/internal/seeded"
)

// KindFunc is the reserved event kind of the At escape hatch: the event
// carries a closure instead of typed operands. Substrate handlers must
// route it (and any unknown kind) to Event.Call.
const KindFunc uint8 = 0

// Event is one scheduled occurrence. Seq breaks time ties deterministically
// in schedule order. Typed events carry their operands in A and B; only
// KindFunc events allocate (the closure), which keeps the steady-state
// scheduling path heap-free.
type Event struct {
	Time int64
	Seq  uint64
	Kind uint8
	A, B int32 // substrate-defined operands (node id, endpoint, ...)
	act  func()
}

// Call runs the closure of a KindFunc event. Handlers call it from their
// default switch arm; the closure may mutate anything, so substrates with
// incremental snapshots must conservatively invalidate them afterwards.
func (e *Event) Call() { e.act() }

// Core is the deterministic event loop: virtual clock, event queue, and the
// seed its named streams derive from. It holds no random stream of its own:
// each owner holds its streams (Stream). Construct with New, install the
// substrate's dispatch with SetHandler, then Schedule/At and Run.
type Core struct {
	seed    int64
	now     int64
	seq     uint64
	queue   eventQueue
	stopped bool

	// handler interprets every popped event (including KindFunc ones, so
	// the substrate can bracket Call with its own invalidation).
	handler func(*Event)
	// afterEvent, when non-nil, runs after each handled event — the hook
	// for per-event metrics and observers.
	afterEvent func()

	// cur is the event being dispatched. Run hands the handler a pointer to
	// this field rather than to a loop-local: the indirect handler call
	// defeats escape analysis, so a local would be heap-allocated per event.
	// This makes Run non-reentrant (handlers must not call Run).
	cur Event
}

// New returns a core whose every named stream derives from seed.
func New(seed int64) *Core { return &Core{seed: seed} }

// SetHandler installs the substrate's event dispatch. Events are delivered
// by pointer; the handler must not retain it past the call.
func (c *Core) SetHandler(h func(*Event)) { c.handler = h }

// SetAfterEvent installs a hook run after every handled event (metrics,
// observers). Pass nil to remove.
func (c *Core) SetAfterEvent(fn func()) { c.afterEvent = fn }

// Now returns the current virtual time.
func (c *Core) Now() int64 { return c.now }

// Stream seeds s, which the caller holds by value, as the core's stream
// called name (seed XOR FNV-1a(name), seeded.Derive) and returns its
// generator. Independent concerns — link delays, a daemon's scheduling
// choices, a corruption generator — draw from separate streams so adding
// draws to one cannot perturb the other. Seeding the same name twice
// restarts the stream.
func (c *Core) Stream(name string, s *seeded.Stream) *rand.Rand {
	return s.Init(seeded.Derive(c.seed, name))
}

// Stop ends the run after the current event. The flag persists: subsequent
// Run calls return immediately.
func (c *Core) Stop() { c.stopped = true }

// Schedule pushes a typed event after the given delay (relative to now).
func (c *Core) Schedule(after int64, kind uint8, a, b int32) {
	c.seq++
	c.queue.push(Event{Time: c.now + after, Seq: c.seq, Kind: kind, A: a, B: b})
}

// At schedules fn at absolute virtual time t (clamped to now for past
// times). Fault injectors and tests use it to place occurrences precisely.
// This is the rare-path escape hatch: it allocates a closure, so recurring
// occurrences use typed events instead.
func (c *Core) At(t int64, fn func()) {
	if t < c.now {
		t = c.now
	}
	c.seq++
	c.queue.push(Event{Time: t, Seq: c.seq, Kind: KindFunc, act: fn})
}

// Run processes events until the queue drains, time exceeds horizon, or
// Stop is called. It returns the number of events processed in this call.
// The clock ends at horizon even when the queue drains early.
func (c *Core) Run(horizon int64) int64 {
	var n int64
	for !c.stopped && c.queue.popDue(horizon, &c.cur) {
		c.now = c.cur.Time
		if c.handler != nil {
			c.handler(&c.cur)
		} else if c.cur.Kind == KindFunc {
			c.cur.Call()
		}
		c.cur.act = nil // release a KindFunc closure for GC
		n++
		if c.afterEvent != nil {
			c.afterEvent()
		}
	}
	if c.now < horizon {
		c.now = horizon
	}
	return n
}
