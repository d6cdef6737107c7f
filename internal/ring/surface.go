package ring

import (
	"math/rand"

	"github.com/graybox-stabilization/graybox/internal/channel"
	"github.com/graybox-stabilization/graybox/internal/engine"
	"github.com/graybox-stabilization/graybox/internal/obs"
)

// This file implements engine.Surface for the ring, so the unified fault
// injector in internal/fault drives the same Mix into ring runs, plus the
// pre-engine ad-hoc fault methods as thin shims over that surface.

// N returns the ring size.
func (s *Sim) N() int { return s.cfg.N }

// Obs returns the run's observability bundle (nil when disabled).
func (s *Sim) Obs() *obs.Obs { return s.cfg.Obs }

// Core returns the underlying engine core.
func (s *Sim) Core() *engine.Core { return s.core }

// Channels enumerates the n ring links in deterministic order.
func (s *Sim) Channels() []channel.Endpoint { return s.eps }

// QueueLen returns the number of tokens in flight on ep.
func (s *Sim) QueueLen(ep channel.Endpoint) int {
	q := s.mesh.Net().Chan(ep.Src, ep.Dst)
	if q == nil {
		return 0
	}
	return q.Len()
}

// FaultDrop removes the i-th in-flight token on ep.
func (s *Sim) FaultDrop(ep channel.Endpoint, i int) bool {
	q := s.mesh.Net().Chan(ep.Src, ep.Dst)
	return q != nil && q.Drop(i)
}

// FaultDuplicate duplicates the i-th in-flight token on ep and gives the
// copy its own delivery opportunity after redeliver ticks.
func (s *Sim) FaultDuplicate(ep channel.Endpoint, i int, redeliver int64) bool {
	q := s.mesh.Net().Chan(ep.Src, ep.Dst)
	if q == nil || !q.Duplicate(i) {
		return false
	}
	s.mesh.ScheduleDelivery(ep, redeliver)
	return true
}

// FaultCorrupt overwrites the i-th in-flight token's sequence number with
// an arbitrary small value drawn from rng (a stale or forged token).
func (s *Sim) FaultCorrupt(ep channel.Endpoint, i int, rng *rand.Rand) bool {
	q := s.mesh.Net().Chan(ep.Src, ep.Dst)
	if q == nil {
		return false
	}
	return q.Mutate(i, func(t *Token) {
		t.Seq = uint64(rng.Int63n(int64(2 * s.cfg.N * s.cfg.N)))
	})
}

// FaultPerturb corrupts process id's local state: steal the held token,
// forge a holder, or blockade the process with a forward seq jump.
func (s *Sim) FaultPerturb(id int, rng *rand.Rand) bool {
	if id < 0 || id >= s.cfg.N {
		return false
	}
	nd := s.nodes[id]
	switch rng.Intn(3) {
	case 0:
		nd.CorruptState(false, nd.Seq())
	case 1:
		nd.CorruptState(true, nd.Seq())
	default:
		nd.CorruptState(nd.Holding(), nd.Seq()+uint64(1+rng.Intn(2*s.cfg.N)))
	}
	return true
}

// FaultFlush drops every in-flight token on ep.
func (s *Sim) FaultFlush(ep channel.Endpoint) bool {
	q := s.mesh.Net().Chan(ep.Src, ep.Dst)
	if q == nil {
		return false
	}
	q.Clear()
	return true
}

var _ engine.Surface = (*Sim)(nil)

// --- pre-engine fault shims -------------------------------------------

// DropAllInFlight loses every in-flight token (the ring-death fault).
func (s *Sim) DropAllInFlight() {
	for _, ep := range s.eps {
		s.FaultFlush(ep)
	}
}

// StealToken clears every process's holding flag (state corruption killing
// the token while held).
func (s *Sim) StealToken() {
	for _, nd := range s.nodes {
		if nd.Holding() {
			nd.CorruptState(false, nd.Seq())
		}
	}
}

// DuplicateInFlight duplicates the head token of every non-empty link.
func (s *Sim) DuplicateInFlight() {
	for _, ep := range s.eps {
		if s.QueueLen(ep) > 0 {
			s.FaultDuplicate(ep, 0, 1)
		}
	}
}

// forgeStream names the core stream ForgeHolders draws from.
const forgeStream = "ring.forge"

// ForgeHolders corrupts k processes into believing they hold the token
// (multi-token state corruption), chosen deterministically from the seed.
func (s *Sim) ForgeHolders(k int) {
	for j := 0; j < k; j++ {
		i := s.forge.Rand().Intn(s.cfg.N)
		s.nodes[i].CorruptState(true, s.nodes[i].Seq())
	}
}

// CorruptSeq forges process i's seq to the given value (a too-high value
// blockades the ring at i until regeneration outruns it).
func (s *Sim) CorruptSeq(i int, seq uint64) {
	s.nodes[i].CorruptState(s.nodes[i].Holding(), seq)
}
