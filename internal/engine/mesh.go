package engine

import "github.com/graybox-stabilization/graybox/internal/channel"

// Mesh is the delay-sampled FIFO link mesh shared by message-passing
// substrates: an n×n channel.Net plus the delivery-scheduling convention
// that every enqueued message gets exactly one delivery opportunity, a
// typed event of the substrate's deliverKind carrying the endpoint in
// (A, B). Delays are drawn from the core's master RNG, so transmission
// timing is part of the run's single seeded stream. They are bounded by
// max, and that bound is what the core's event queue is built on: with max
// under the wheel's 64 ticks (every substrate uses 1 to 5) a delivery is
// pushed and popped in O(1) and never reaches the overflow heap.
type Mesh[M any] struct {
	core        *Core
	net         *channel.Net[M]
	min, max    int64
	deliverKind uint8
	eps         []channel.Endpoint // cached deterministic endpoint order
}

// NewMesh builds an n-process mesh whose per-message delays are uniform in
// [min, max] virtual ticks (max is raised to min if smaller). Deliveries
// are scheduled as typed events of deliverKind; the substrate's handler
// routes them to Recv.
func NewMesh[M any](core *Core, n int, min, max int64, deliverKind uint8) *Mesh[M] {
	if max < min {
		max = min
	}
	return &Mesh[M]{core: core, net: channel.NewNet[M](n), min: min, max: max, deliverKind: deliverKind}
}

// Net exposes the underlying channel mesh for direct inspection and fault
// injection.
func (m *Mesh[M]) Net() *channel.Net[M] { return m.net }

// Delay samples one transmission delay from the core's RNG.
func (m *Mesh[M]) Delay() int64 {
	return m.min + m.core.rng.Int63n(m.max-m.min+1)
}

// Send enqueues msg on src→dst and schedules its delivery opportunity
// after a sampled delay. It reports whether the channel accepted the
// message (false for out-of-range or self endpoints).
func (m *Mesh[M]) Send(src, dst int, msg M) bool {
	if !m.net.Send(src, dst, msg) {
		return false
	}
	m.ScheduleDelivery(channel.Endpoint{Src: src, Dst: dst}, m.Delay())
	return true
}

// ScheduleDelivery schedules one head-of-channel delivery opportunity on
// ep after the given delay. Fault injectors call this when they duplicate
// a message, so the extra copy has its own opportunity.
func (m *Mesh[M]) ScheduleDelivery(ep channel.Endpoint, delay int64) {
	m.core.Schedule(delay, m.deliverKind, int32(ep.Src), int32(ep.Dst))
}

// Recv pops the head of ep's channel. ok is false when the channel is
// empty — a delivery opportunity whose message was lost to a fault — or
// when ep is not a valid channel.
func (m *Mesh[M]) Recv(ep channel.Endpoint) (msg M, ok bool) {
	q := m.net.Chan(ep.Src, ep.Dst)
	if q == nil {
		return msg, false
	}
	return q.Recv()
}

// Endpoints returns the deterministic endpoint order, cached across calls.
func (m *Mesh[M]) Endpoints() []channel.Endpoint {
	if m.eps == nil {
		m.eps = m.net.Endpoints()
	}
	return m.eps
}
