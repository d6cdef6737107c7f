package engine

import "math/bits"

// wheelSize is the number of one-tick buckets in the near level of the
// event queue. It equals the width of the occupancy word, so finding the
// next non-empty tick is one rotate and one trailing-zero count. Link
// delays are 1 to 5 ticks and client think times a few tens, so nearly
// every event of a run is due inside the window when it is scheduled.
const wheelSize = 64

// wheelNode is one queued event of the near level, linked into its tick's
// FIFO (or into the free list) by slab index; 0 is the nil link.
type wheelNode struct {
	ev   Event
	next int32
}

// eventQueue is the core's pending-event set: a timing wheel for events due
// within wheelSize ticks of base, in front of a binary heap for everything
// else. Both levels are ordered by (time, seq) and pop merges them on that
// key, so the pop sequence is exactly the one a single eventHeap holding
// the same events would produce; only the cost differs. The zero value is
// an empty queue.
//
// Near level. An event with base <= Time < base+wheelSize is appended to
// the FIFO of bucket Time%wheelSize. base only moves forward, to the time
// of each popped event, which is the minimum over both levels: every
// earlier tick is then empty, so a bucket never holds two different times,
// and because the core's seq rises with every push, append order within a
// bucket is already seq order. Bit i of occ is set while bucket i is
// non-empty.
//
// Overflow level. Events outside the window (wrapper deadlines, At fault
// times, distant timers, and anything scheduled while base lags the clock
// by a window or more after an idle stretch) go to far, and stay there
// even once base catches up with them: the merge on pop keeps the order
// exact without migrating them.
type eventQueue struct {
	base int64
	occ  uint64
	n    int // events in the near level

	head, tail [wheelSize]int32
	nodes      []wheelNode // slab; nodes[0] is the nil sentinel
	free       int32       // free-list head through wheelNode.next

	far eventHeap
}

// push adds e. Callers supply strictly increasing Seq values.
func (q *eventQueue) push(e Event) {
	if uint64(e.Time-q.base) >= wheelSize {
		q.far.push(e)
		return
	}
	i := q.free
	if i != 0 {
		q.free = q.nodes[i].next
		q.nodes[i] = wheelNode{ev: e}
	} else {
		if len(q.nodes) == 0 {
			q.nodes = append(q.nodes, wheelNode{})
		}
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, wheelNode{ev: e})
	}
	slot := e.Time & (wheelSize - 1)
	if q.occ&(1<<slot) == 0 {
		q.occ |= 1 << slot
		q.head[slot] = i
	} else {
		q.nodes[q.tail[slot]].next = i
	}
	q.tail[slot] = i
	q.n++
}

// nearSlot returns the bucket of the earliest near-level event. The near
// level must be non-empty.
func (q *eventQueue) nearSlot() int64 {
	ahead := bits.TrailingZeros64(bits.RotateLeft64(q.occ, -int(q.base&(wheelSize-1))))
	return (q.base + int64(ahead)) & (wheelSize - 1)
}

// minTime returns the time of the earliest event, false when empty.
func (q *eventQueue) minTime() (int64, bool) {
	if q.n == 0 {
		if q.far.len() == 0 {
			return 0, false
		}
		return q.far.items[0].Time, true
	}
	t := q.nodes[q.head[q.nearSlot()]].ev.Time
	if q.far.len() > 0 && q.far.items[0].Time < t {
		t = q.far.items[0].Time
	}
	return t, true
}

// popDue removes the earliest event into *out if it is due at or before
// horizon, and reports whether it did.
func (q *eventQueue) popDue(horizon int64, out *Event) bool {
	// Which level holds the minimum: the merge.
	fromFar := q.far.len() > 0
	var slot int64
	if q.n > 0 {
		slot = q.nearSlot()
		fromFar = fromFar && q.far.items[0].before(&q.nodes[q.head[slot]].ev)
	} else if !fromFar {
		return false
	}
	if fromFar {
		if q.far.items[0].Time > horizon {
			return false
		}
		*out, _ = q.far.pop()
	} else {
		i := q.head[slot]
		nd := &q.nodes[i]
		if nd.ev.Time > horizon {
			return false
		}
		*out = nd.ev
		if nd.next == 0 {
			q.occ &^= 1 << slot
		} else {
			q.head[slot] = nd.next
		}
		nd.ev.act = nil // release the closure, if any, to the GC
		nd.next = q.free
		q.free = i
		q.n--
	}
	if out.Time > q.base {
		q.base = out.Time
	}
	return true
}

func (q *eventQueue) len() int { return q.n + q.far.len() }
