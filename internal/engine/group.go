// Shard groups: S independent cores advanced in lockstep windows between
// deterministic merge barriers.
//
// A sharded substrate gives every shard its own Core — its own virtual
// clock, event queue, and seeded streams — so the shards are independent
// pure functions of their seeds. Inside a window each core touches only
// its own state; at a barrier every core has reached the same virtual
// time, and the coordinator may inspect all shards, exchange cross-shard
// work, and schedule the next window.
//
// A window runs on the caller's goroutine, one core after another in shard
// order. The independence would allow running them concurrently, and an
// earlier Group did; it was measured away. On the sharded benchmark
// workload (100 nodes, 8 shards) a window holds about 400 events and its
// busiest shard 54.2% of them, so two perfect workers could at best reach
// 60.7% of serial time, and neither a goroutine per window nor persistent
// spinning helpers got under the plain loop (DESIGN.md §5.2).
package engine

// Group coordinates a set of shard cores advancing in lockstep windows.
// The zero value is unusable; construct with NewGroup.
type Group struct {
	cores []*Core
}

// NewGroup returns a group over the given shard cores. The slice is
// retained, not copied; shard s is cores[s].
func NewGroup(cores []*Core) *Group { return &Group{cores: cores} }

// Cores returns the underlying shard cores (shard s at index s).
func (g *Group) Cores() []*Core { return g.cores }

// LowWater returns the earliest pending event time across all shards — the
// virtual-clock low-water-mark — and false when every queue is empty. The
// coordinator uses it to skip barrier windows no shard has work in.
func (g *Group) LowWater() (int64, bool) {
	var low int64
	ok := false
	for _, c := range g.cores {
		if t, has := c.NextEventTime(); has && (!ok || t < low) {
			low, ok = t, true
		}
	}
	return low, ok
}

// RunBarrier advances every core to the given horizon, in shard order on
// the caller's goroutine, and returns the total events processed across
// shards: the merge barrier. A core with nothing due only has its clock
// moved. Shard cores must not share mutable state with each other during
// the window (the group's whole contract), so the order they run in
// changes nothing any of them computes.
func (g *Group) RunBarrier(horizon int64) int64 {
	var n int64
	for _, c := range g.cores {
		n += c.Run(horizon)
	}
	return n
}

// NextEventTime returns the time of the earliest scheduled event and false
// when the queue is empty. It does not pop or advance the clock.
func (c *Core) NextEventTime() (int64, bool) {
	return c.queue.minTime()
}

// Pool is a free list for the coordinator-side records that shuttle work
// across barriers (parked client arrivals, harvest buffers). At 10k+
// client loops the coordinator would otherwise allocate one record per
// loop; recycling through the pool keeps the steady state allocation-free.
// Not goroutine-safe — the coordinator's merge step is serial by contract.
type Pool[T any] struct {
	free []*T
}

// Get returns a recycled record, or a new zero-valued one when the free
// list is empty.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return x
	}
	return new(T)
}

// Put recycles x. The caller must zero any fields it cares about; the pool
// returns records as-is.
func (p *Pool[T]) Put(x *T) {
	if x != nil {
		p.free = append(p.free, x)
	}
}
