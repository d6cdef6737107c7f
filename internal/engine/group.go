// Shard groups: S independent cores advancing in parallel between
// deterministic merge barriers.
//
// A sharded substrate gives every shard its own Core — its own virtual
// clock, event queue, and seeded streams — so the shards are independent
// pure functions of their seeds. Between barriers the cores with work in
// the window run concurrently (the caller and up to GOMAXPROCS-1 helper
// goroutines share them); at a barrier every core has reached
// the same virtual time, and the coordinator may inspect all shards,
// exchange cross-shard work, and schedule the next window. Determinism is
// preserved because nothing is shared during a window: each core touches
// only its own state, and the coordinator's merge step runs serially in
// canonical shard order.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Group coordinates a set of shard cores advancing in lockstep windows.
// The zero value is unusable; construct with NewGroup.
type Group struct {
	cores []*Core
	wg    sync.WaitGroup

	// Per-barrier scratch: the cores with work in the window, the index of
	// the next unclaimed one, and the window's event count.
	busy   []*Core
	next   atomic.Int64
	events atomic.Int64
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

// RunBarrier advances every core to the given horizon and blocks until all
// have arrived: the merge barrier. It returns the total events processed
// across shards. Cores with an event due by the horizon run in parallel;
// the others only need their clocks moved, which the caller does inline.
// The caller also takes a share of the busy cores, so a window spawns at
// most min(busy, GOMAXPROCS)-1 goroutines and none when one core or fewer
// has work. Which goroutine runs a core changes nothing it computes: shard
// cores must not share mutable state with each other or the caller during
// the window (this is the group's whole contract); the sanctioned goroutine
// spawn here is the shard-core analogue of the harness's ParMap.
func (g *Group) RunBarrier(horizon int64) int64 {
	g.busy = g.busy[:0]
	for _, c := range g.cores {
		if t, ok := c.NextEventTime(); ok && t <= horizon && !c.stopped {
			g.busy = append(g.busy, c)
		} else {
			c.Run(horizon) // nothing due: moves the clock to the horizon
		}
	}
	g.next.Store(0)
	g.events.Store(0)
	for h := min(len(g.busy), runtime.GOMAXPROCS(0)) - 1; h > 0; h-- {
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.runBusy(horizon)
		}()
	}
	g.runBusy(horizon)
	g.wg.Wait()
	return g.events.Load()
}

// runBusy claims busy cores one at a time and runs each to the horizon
// until none is left unclaimed.
func (g *Group) runBusy(horizon int64) {
	var n int64
	for {
		i := int(g.next.Add(1)) - 1
		if i >= len(g.busy) {
			break
		}
		n += g.busy[i].Run(horizon)
	}
	g.events.Add(n)
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
