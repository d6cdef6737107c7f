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
	// ActRelease: perform "Release CS" on Shard(), then step again. The
	// substrate's release is a no-op when a fault already moved the phase.
	ActRelease
	// ActPark: the request budget is spent. Step again only if the phase
	// moves.
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
	// drvParked: the request budget is spent.
	drvParked
)

// Driver is the Client Spec as a pure state machine, written once for
// every substrate: think, request the drawn shard, wait to leave Hungry,
// on Eating hold and release, on anything else think and ask again. The
// simulator steps it from its event loop and the live cluster from a
// blocking goroutine; both hand it the time and the phase they observe and
// carry out the Action it returns. It owns no goroutine, clock or rng
// beyond its draw stream, and a step allocates nothing.
//
// Times are in the caller's unit (a draw of t ticks lasts t*unit): the
// simulator passes virtual ticks with unit 1, the live loop nanoseconds
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
	budget int // requests this client may issue; 0 = unlimited
	unit   int64
	open   bool

	state   driverState
	thinkAt int64 // think deadline; in the past once spent
	holdAt  int64 // hold deadline while drvHolding
	arrival int64 // open loop: the arrival clock, independent of service
	shard   int   // target of the current attempt
	issued  int
}

// NewDriver returns the client for one draw stream over shards critical
// sections, starting (and, for an open-loop stream, starting its arrival
// clock) at now. budget caps the requests it issues; 0 means no cap.
func NewDriver(draws Client, shards, budget int, unit, now int64) Driver {
	return Driver{
		draws: draws, shards: shards, budget: budget, unit: unit,
		open: draws.Open(), arrival: now,
	}
}

// Shard is the critical section the client is working on: the phase handed
// to Step is the phase there, and requests and releases go there.
func (d *Driver) Shard() int { return d.shard }

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
		d.state = drvIdle
		return ActRelease
	case drvAwaiting:
		if ph == tme.Hungry {
			return ActAwait
		}
		if ph == tme.Eating {
			d.state = drvHolding
			d.holdAt = now + d.draws.NextHold()*d.unit
			return ActSleep
		}
		// Left Hungry without eating: a fault wiped the request, and this
		// client is the only one who would ask again.
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
			d.issued++
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
	if d.budget > 0 && d.issued >= d.budget {
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
	d.shard = d.draws.NextResource(d.shards)
	d.state = drvThinking
	return ActSleep
}
