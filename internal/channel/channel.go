// Package channel models the interprocess channels of the TME system model:
// FIFO queues subject to arbitrary-but-finite delay, whose contents faults
// may lose, duplicate, or corrupt at any time (DSN 2001, §3.1).
//
// The queues here are pure data structures; delivery timing belongs to the
// simulator (internal/sim) or the goroutine runtime (internal/runtime).
package channel

import "fmt"

// FIFO is a first-in first-out queue of messages between one ordered pair of
// processes. The zero value is an empty, usable queue.
//
// The head message is held inline: a simulated channel nearly always
// carries zero or one message, and with the head in the struct that case
// touches the queue's own memory only and never allocates. Messages behind
// the head wait in rest, which is reached only when a second message is
// queued (a fault duplicated one, or a sender outran the link delay).
//
// FIFO is not safe for concurrent use; the owning scheduler serializes
// access.
type FIFO[T any] struct {
	n     int // queued messages; first is live when n > 0
	first T   // message 0
	rest  []T // messages 1..n-1: len(rest) == n-1 when n > 0, else 0
}

// Len returns the number of queued messages.
func (q *FIFO[T]) Len() int { return q.n }

// Empty reports whether the queue holds no messages.
func (q *FIFO[T]) Empty() bool { return q.n == 0 }

// Send enqueues m at the tail.
func (q *FIFO[T]) Send(m T) {
	if q.n == 0 {
		q.first = m
	} else {
		q.rest = append(q.rest, m)
	}
	q.n++
}

// Recv dequeues the head message. ok is false when the queue is empty.
func (q *FIFO[T]) Recv() (m T, ok bool) {
	if q.n == 0 {
		return m, false
	}
	m = q.first
	q.n--
	if q.n > 0 {
		q.first = q.rest[0]
		copy(q.rest, q.rest[1:])
		q.rest = q.rest[:q.n-1]
	}
	return m, true
}

// Peek returns the head message without removing it.
func (q *FIFO[T]) Peek() (m T, ok bool) {
	if q.n == 0 {
		return m, false
	}
	return q.first, true
}

// slot returns the place of the i-th queued message. It panics if i is out
// of range: the inline head is index 0 of a non-empty queue only, and every
// other index is left to rest's bounds check.
func (q *FIFO[T]) slot(i int) *T {
	if i == 0 && q.n > 0 {
		return &q.first
	}
	return &q.rest[i-1]
}

// At returns the i-th queued message (0 = head). It panics if i is out of
// range; callers index only within [0, Len()).
func (q *FIFO[T]) At(i int) T { return *q.slot(i) }

// Drop removes the i-th queued message, modelling message loss.
// It returns false if i is out of range.
func (q *FIFO[T]) Drop(i int) bool {
	if i < 0 || i >= q.n {
		return false
	}
	if i == 0 {
		q.Recv()
		return true
	}
	q.rest = append(q.rest[:i-1], q.rest[i:]...)
	q.n--
	return true
}

// Duplicate inserts a copy of the i-th queued message immediately after it,
// modelling message duplication. It returns false if i is out of range.
func (q *FIFO[T]) Duplicate(i int) bool {
	if i < 0 || i >= q.n {
		return false
	}
	m := *q.slot(i)
	// The copy becomes message i+1, which is rest[i].
	q.rest = append(q.rest, m)
	copy(q.rest[i+1:], q.rest[i:])
	q.rest[i] = m
	q.n++
	return true
}

// Mutate applies f to the i-th queued message in place, modelling message
// corruption. It returns false if i is out of range.
func (q *FIFO[T]) Mutate(i int, f func(*T)) bool {
	if i < 0 || i >= q.n {
		return false
	}
	f(q.slot(i))
	return true
}

// Clear discards every queued message (channel flush / improper init).
func (q *FIFO[T]) Clear() {
	q.n = 0
	q.rest = q.rest[:0]
}

// Snapshot returns a copy of the queued messages, head first.
func (q *FIFO[T]) Snapshot() []T {
	out := make([]T, q.n)
	if q.n > 0 {
		out[0] = q.first
		copy(out[1:], q.rest)
	}
	return out
}

// Endpoint names one directed channel: from Src to Dst.
type Endpoint struct {
	Src, Dst int
}

// String renders the endpoint as "src->dst".
func (e Endpoint) String() string { return fmt.Sprintf("%d->%d", e.Src, e.Dst) }

// Net is the full mesh of directed FIFO channels among n processes. The
// paper assumes the processes are connected; we model the complete graph,
// which both RA ME and Lamport ME require (requests go to all processes).
//
// Channels live in a dense n×n array indexed by src*n+dst, so the per-
// delivery lookup is an index computation instead of a map hash — the
// lookup sits on the simulator's hottest path.
type Net[T any] struct {
	n     int
	chans []FIFO[T] // row-major [src][dst]; the diagonal stays empty
}

// NewNet returns a network of n processes with empty channels between every
// ordered pair of distinct processes.
func NewNet[T any](n int) *Net[T] {
	return &Net[T]{n: n, chans: make([]FIFO[T], n*n)}
}

// N returns the number of processes.
func (nn *Net[T]) N() int { return nn.n }

// Chan returns the directed channel src→dst, or nil if the endpoint is
// invalid (out of range or src == dst). The returned pointer stays valid
// for the network's lifetime.
func (nn *Net[T]) Chan(src, dst int) *FIFO[T] {
	if src < 0 || src >= nn.n || dst < 0 || dst >= nn.n || src == dst {
		return nil
	}
	return &nn.chans[src*nn.n+dst]
}

// Send enqueues m on src→dst. It returns false for invalid endpoints.
func (nn *Net[T]) Send(src, dst int, m T) bool {
	q := nn.Chan(src, dst)
	if q == nil {
		return false
	}
	q.Send(m)
	return true
}

// TotalQueued returns the number of messages in flight across all channels.
func (nn *Net[T]) TotalQueued() int {
	total := 0
	for i := range nn.chans {
		total += nn.chans[i].Len()
	}
	return total
}

// ClearAll flushes every channel (the "all channels are empty" Init state).
func (nn *Net[T]) ClearAll() {
	for i := range nn.chans {
		nn.chans[i].Clear()
	}
}

// Endpoints returns every directed endpoint in deterministic order
// (src-major, then dst), for seeded fault injection and snapshots.
func (nn *Net[T]) Endpoints() []Endpoint {
	eps := make([]Endpoint, 0, nn.n*(nn.n-1))
	for i := 0; i < nn.n; i++ {
		for j := 0; j < nn.n; j++ {
			if i != j {
				eps = append(eps, Endpoint{Src: i, Dst: j})
			}
		}
	}
	return eps
}
