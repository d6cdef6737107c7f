package engine

import (
	"math/rand"

	"github.com/graybox-stabilization/graybox/internal/channel"
	"github.com/graybox-stabilization/graybox/internal/obs"
)

// Surface is the substrate-agnostic fault surface: the contract between a
// simulation substrate (TME sim, ring sim, token-ring daemon) and the
// fault injector in internal/fault. It exposes exactly what the paper's
// fault model needs — enumerate the communication channels, damage
// messages in flight, perturb process state — without revealing the
// substrate's message or state types, so one fault Mix drives every
// protocol.
//
// Message-type-specific corruption (e.g. scrambling a TME timestamp field
// by field) stays with the substrate: FaultCorrupt and FaultPerturb are the
// substrate's whole fault model, and injectors reach it through them alone.
//
// The Fault* methods report whether the fault was applied; substrates
// without the corresponding machinery (the token ring has no channels)
// return false, and injectors count only applied faults.
type Surface interface {
	// Now returns the substrate's current virtual time.
	Now() int64
	// N returns the number of processes.
	N() int
	// Obs returns the run's observability bundle (nil when disabled).
	Obs() *obs.Obs
	// Core returns the engine core, for At-scheduling fault bursts.
	Core() *Core

	// Channels enumerates the communication channels in deterministic
	// order (nil for substrates without message passing).
	Channels() []channel.Endpoint
	// QueueLen returns the number of messages in flight on ep.
	QueueLen(ep channel.Endpoint) int

	// FaultDrop removes the i-th in-flight message on ep.
	FaultDrop(ep channel.Endpoint, i int) bool
	// FaultDuplicate duplicates the i-th in-flight message on ep and
	// schedules a delivery opportunity for the copy after redeliver ticks.
	FaultDuplicate(ep channel.Endpoint, i int, redeliver int64) bool
	// FaultCorrupt mutates the i-th in-flight message on ep, drawing the
	// damage from rng (the injector's stream, so corruption is part of the
	// fault seed, not the run seed).
	FaultCorrupt(ep channel.Endpoint, i int, rng *rand.Rand) bool
	// FaultPerturb corrupts the local state of process id, drawing the
	// damage from rng.
	FaultPerturb(id int, rng *rand.Rand) bool
	// FaultFlush drops every in-flight message on ep.
	FaultFlush(ep channel.Endpoint) bool
}
