package sim

import (
	"math/rand"

	"github.com/graybox-stabilization/graybox/internal/channel"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

// This file implements engine.Surface, so that one substrate-agnostic
// injector drives faults into the TME model. FaultCorrupt and FaultPerturb
// are the paper's TME fault model (tme.CorruptMessage, tme.RandomCorruption),
// the same one the live chaos proxy applies. FaultPerturb writes the node
// outside its process's step, as every fault closure does (the closure's
// end feeds every process Corrupt(nil), which repairs it and re-reads its
// deadline), and marks the process it writes dirty, the same way the
// simulator's own mutations do, so incremental snapshots and the monitor
// steps run on them stay honest; channel contents are not part of those
// snapshots.

// Channels enumerates the mesh's channels in deterministic order.
func (s *Sim) Channels() []channel.Endpoint { return s.endpoints() }

// QueueLen returns the number of messages in flight on ep.
func (s *Sim) QueueLen(ep channel.Endpoint) int {
	q := s.net.Chan(ep.Src, ep.Dst)
	if q == nil {
		return 0
	}
	return q.Len()
}

// FaultDrop removes the i-th in-flight message on ep.
func (s *Sim) FaultDrop(ep channel.Endpoint, i int) bool {
	q := s.net.Chan(ep.Src, ep.Dst)
	return q != nil && q.Drop(i)
}

// FaultDuplicate duplicates the i-th in-flight message on ep and gives the
// copy its own delivery opportunity after redeliver ticks.
func (s *Sim) FaultDuplicate(ep channel.Endpoint, i int, redeliver int64) bool {
	q := s.net.Chan(ep.Src, ep.Dst)
	if q == nil || !q.Duplicate(i) {
		return false
	}
	s.ScheduleDelivery(ep, redeliver)
	return true
}

// FaultCorrupt damages the i-th in-flight message on ep with
// tme.CorruptMessage, drawing from rng.
func (s *Sim) FaultCorrupt(ep channel.Endpoint, i int, rng *rand.Rand) bool {
	q := s.net.Chan(ep.Src, ep.Dst)
	return q != nil && q.Mutate(i, func(m *tme.Message) { tme.CorruptMessage(rng, m, s.cfg.N) })
}

// FaultPerturb corrupts the local state of process id with
// tme.RandomCorruption, drawing from rng. Returns false (drawing nothing)
// when the node does not support corruption.
func (s *Sim) FaultPerturb(id int, rng *rand.Rand) bool {
	if id < 0 || id >= s.cfg.N {
		return false
	}
	node, ok := s.procs[id].Node().(tme.Corruptible)
	if !ok {
		return false
	}
	node.Corrupt(tme.RandomCorruption(rng, id, s.cfg.N))
	s.dirtyNode(id)
	return true
}

// FaultFlush drops every in-flight message on ep.
func (s *Sim) FaultFlush(ep channel.Endpoint) bool {
	q := s.net.Chan(ep.Src, ep.Dst)
	if q == nil {
		return false
	}
	q.Clear()
	return true
}
