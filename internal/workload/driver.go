package workload

import "github.com/graybox-stabilization/graybox/internal/tme"

// Action is what one Driver step asks its substrate to do.
type Action uint8

// Driver actions. Every substrate adapter dispatches over these and must
// name all of them.
//
//gblint:kindset workload-action
const (
	// ActSleep: a deadline was just armed. Step again at Wake().
	ActSleep Action = iota + 1
	// ActIdle: nothing to do before the deadline already armed (the step
	// was an early look). Step again at Wake() or when the phase moves.
	ActIdle
	// ActAwait: step again when the phase on Shard() has left Hungry.
	ActAwait
	// ActRequest: perform "Request CS" on Shard(), then step again.
	ActRequest
	// ActRelease: perform "Release CS" on every shard of Set() (Shard()
	// itself, for a one-shard set), then step again. The substrate's
	// release is a no-op when a fault already moved the phase.
	ActRelease
	// ActPark: the budget of lock sets is spent. Step again only if the
	// phase moves.
	ActPark
)

type driverState uint8

const (
	// drvIdle: between meals with no deadline armed (also a new Driver).
	drvIdle driverState = iota
	// drvThinking: the think deadline thinkAt is armed.
	drvThinking
	// drvAwaiting: a request is out and the client waits to leave Hungry.
	drvAwaiting
	// drvHolding: eating until holdAt.
	drvHolding
	// drvParked: the budget of lock sets is spent.
	drvParked
)

// Driver is the Client Spec as a pure state machine, written once for
// every substrate: think, request the drawn lock set, wait to leave
// Hungry, on Eating hold and release, on anything else think and ask
// again. The simulator steps it from its event loop, the sharded simulator
// from its barrier coordinator and the live cluster from a blocking
// goroutine; each hands it the time and the phase it observes and carries
// out the Action it returns. It owns no goroutine, clock or rng beyond its
// draw stream, and a step allocates nothing.
//
// A loop's lock set is one shard, or two on every crossEvery-th set,
// drawn at the think step and held sorted ascending without duplicates:
// the client requests them one at a time in that order, so waits-for
// between clients follows the shard order and cannot cycle (the
// ordered-resource argument internal/hme observes), holds them together
// and releases them together.
//
// Times are in the caller's unit (a draw of t ticks lasts t*unit): the
// simulators pass virtual ticks with unit 1, the live loop nanoseconds
// with unit harness.LiveTick.
//
// The machine has no state it cannot leave. A phase it did not cause is
// acted on wherever it is seen: Eating with no hold pending is released at
// once (CS Spec obliges the client to keep eating transient), and Hungry
// with no request of its own is awaited like one, because nobody else
// would see that request through.
type Driver struct {
	draws  Client
	shards int
	cross  int // every cross-th lock set takes two shards; 0 = never
	budget int // lock sets this client may start; 0 = unlimited
	unit   int64
	open   bool

	state   driverState
	thinkAt int64 // think deadline; in the past once spent
	holdAt  int64 // hold deadline while drvHolding
	arrival int64 // open loop: the arrival clock, independent of service
	set     [MaxLockSet]int
	n       int // shards in set, ≥ 1
	held    int // shards of set granted so far; n while drvHolding
	started int // lock sets started
}

// MaxLockSet is the most shards one lock set holds.
const MaxLockSet = 2

// NewDriver returns the client for one draw stream over shards critical
// sections, starting (and, for an open-loop stream, starting its arrival
// clock) at now. Every crossEvery-th lock set it starts takes two shards;
// 0 means every set is one shard. budget caps the lock sets it starts; 0
// means no cap.
func NewDriver(draws Client, shards, crossEvery, budget int, unit, now int64) Driver {
	return Driver{
		draws: draws, shards: shards, cross: crossEvery, budget: budget, unit: unit,
		open: draws.Open(), arrival: now, n: 1,
	}
}

// Shard is the critical section the client is working on: the phase handed
// to Step is the phase there, and requests go there. While the set is being
// acquired it is the next shard to ask for; otherwise it is the set's last.
func (d *Driver) Shard() int { return d.set[min(d.held, d.n-1)] }

// Set is the current lock set, ascending: the one being thought about,
// acquired or held. ActRelease releases it.
func (d *Driver) Set() []int { return d.set[:d.n] }

// Held is the prefix of Set already granted: empty between meals, the
// whole set while holding it.
func (d *Driver) Held() []int { return d.set[:d.held] }

// Wake is the deadline behind the last ActSleep or ActIdle.
func (d *Driver) Wake() int64 {
	if d.state == drvHolding {
		return d.holdAt
	}
	return d.thinkAt
}

// Step advances the client given the time and the phase observed on
// Shard(). It is total over (state, phase): substrates may step it
// whenever something could have written the process, not only at its
// deadlines.
func (d *Driver) Step(now int64, ph tme.Phase) Action {
	switch d.state {
	case drvHolding:
		if now < d.holdAt {
			return ActIdle
		}
		d.state, d.held = drvIdle, 0
		return ActRelease
	case drvAwaiting:
		if ph == tme.Hungry {
			return ActAwait
		}
		if ph == tme.Eating {
			if d.held++; d.held < d.n {
				return ActRequest // the next shard of the set, in ascending order
			}
			d.state = drvHolding
			d.holdAt = now + d.draws.NextHold()*d.unit
			return ActSleep
		}
		// Left Hungry without eating: a fault wiped the request, and this
		// client is the only one who would ask again. Holding part of its
		// set it is eating, and may not think: it asks again at once.
		if d.held > 0 {
			return ActRequest
		}
		d.state = drvIdle
	}

	// Between meals.
	if ph == tme.Eating {
		// A think deadline still ahead stays armed; a spent one is re-drawn.
		if d.state == drvThinking && now >= d.thinkAt {
			d.state = drvIdle
		}
		return ActRelease
	}
	if ph == tme.Hungry {
		d.state = drvAwaiting
		return ActAwait
	}
	if d.state == drvThinking {
		if now < d.thinkAt {
			return ActIdle
		}
		if ph == tme.Thinking {
			d.started++
			d.state = drvAwaiting
			return ActRequest
		}
		d.state = drvIdle // invalid phase (level-1 wrapper territory): skip the cycle
	}
	if now < d.thinkAt {
		// Back from a meal this client did not ask for: its own think is
		// still running.
		d.state = drvThinking
		return ActIdle
	}
	if d.budget > 0 && d.started >= d.budget {
		d.state = drvParked
		return ActPark
	}
	gap := d.draws.NextThink() * d.unit
	if d.open {
		// Arrivals keep their own clock: one that fell due while the client
		// was busy is served as soon as it frees up.
		d.arrival += gap
		d.thinkAt = d.arrival
	} else {
		d.thinkAt = now + gap
	}
	d.drawSet()
	d.state = drvThinking
	return ActSleep
}

// drawSet draws the next lock set from the shard stream: one shard, two on
// every cross-th set, sorted ascending with a duplicate dropped.
func (d *Driver) drawSet() {
	d.set[0], d.n = d.draws.NextResource(d.shards), 1
	if d.cross > 0 && (d.started+1)%d.cross == 0 {
		if s := d.draws.NextResource(d.shards); s != d.set[0] {
			d.set[1], d.n = s, 2
			if s < d.set[0] {
				d.set[0], d.set[1] = s, d.set[0]
			}
		}
	}
}
