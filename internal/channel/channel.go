// Package channel models the interprocess channels of the TME system model:
// FIFO queues subject to arbitrary-but-finite delay, whose contents faults
// may lose, duplicate, or corrupt at any time (DSN 2001, §3.1).
//
// The queues here are pure data structures; delivery timing belongs to the
// simulator (internal/sim) or the goroutine runtime (internal/runtime).
//
// Layout. A FIFO holds its head message inline: a simulated channel nearly
// always carries zero or one message, and with the head in the struct that
// case touches the queue's own memory only and never allocates. Messages
// behind the head (a fault duplicated one, or a sender outran the link
// delay) are cells of an overflow slab, linked head to tail by int32 index.
// Every channel of a Net shares the Net's slab, and a cell freed by Recv,
// Drop or Clear goes on the slab's free list for the next overflow on any
// channel. A mesh so allocates O(log peak overflow) times in a run, however
// many of its channels ever queue two messages, and a channel's header is
// the inline head, three int32s and the slab pointer (72 bytes for a
// tme.Message). A FIFO outside a Net makes a slab of its own on its first
// overflow.
package channel

import "fmt"

// FIFO is a first-in first-out queue of messages between one ordered pair of
// processes. The zero value is an empty, usable queue. Its head is inline
// and the rest in an overflow slab (see the package doc).
//
// Send, Recv and Len are O(1). Drop, Duplicate and Mutate walk the links
// to their index, so a loop over every message uses Each.
//
// FIFO is not safe for concurrent use; the owning scheduler serializes
// access, and the channels of one Net share that owner.
type FIFO[T any] struct {
	first      T        // message 0
	n          int32    // queued messages; first is live when n > 0
	head, tail int32    // cells of messages 1..n-1; 0 (the nil link) when n <= 1
	ov         *slab[T] // overflow cells, shared by the channels of a Net
}

// cell is one queued message behind a channel's head, linked to the next
// message of its channel (or of the free list) by slab index.
type cell[T any] struct {
	m    T
	next int32
}

// slab holds the overflow cells of one or more channels; cells[0] is the
// nil sentinel, so index 0 is the nil link.
type slab[T any] struct {
	cells []cell[T]
	free  int32 // free-list head through cell.next
}

// slabChunk is a new slab's first capacity, so that a slab skips the
// smallest doublings.
const slabChunk = 16

// alloc stores m in a free cell, with no successor, and returns its index.
func (s *slab[T]) alloc(m T) int32 {
	if i := s.free; i != 0 {
		s.free = s.cells[i].next
		s.cells[i] = cell[T]{m: m}
		return i
	}
	if s.cells == nil {
		s.cells = make([]cell[T], 1, slabChunk)
	}
	s.cells = append(s.cells, cell[T]{m: m})
	return int32(len(s.cells) - 1)
}

// release puts cell i on the free list, dropping its message.
func (s *slab[T]) release(i int32) {
	s.cells[i] = cell[T]{next: s.free}
	s.free = i
}

// overflow returns the queue's slab, making one for a FIFO outside a Net.
func (q *FIFO[T]) overflow() *slab[T] {
	if q.ov == nil {
		q.ov = new(slab[T])
	}
	return q.ov
}

// Len returns the number of queued messages.
func (q *FIFO[T]) Len() int { return int(q.n) }

// Send enqueues m at the tail.
func (q *FIFO[T]) Send(m T) {
	if q.n == 0 {
		q.first = m
	} else {
		ov := q.overflow()
		c := ov.alloc(m)
		if q.n == 1 {
			q.head = c
		} else {
			ov.cells[q.tail].next = c
		}
		q.tail = c
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
		h := q.head
		q.first = q.ov.cells[h].m
		q.head = q.ov.cells[h].next
		if q.head == 0 {
			q.tail = 0
		}
		q.ov.release(h)
	}
	return m, true
}

// cellOf returns the slab index of the i-th queued message, 1 <= i < Len().
func (q *FIFO[T]) cellOf(i int) int32 {
	c := q.head
	for ; i > 1; i-- {
		c = q.ov.cells[c].next
	}
	return c
}

// slot returns the place of the i-th queued message, valid until the next
// Send or Duplicate on any channel sharing the slab. It panics if i is out
// of range.
func (q *FIFO[T]) slot(i int) *T {
	if i < 0 || i >= int(q.n) {
		panic(fmt.Sprintf("channel: index %d out of range [0,%d)", i, q.n))
	}
	if i == 0 {
		return &q.first
	}
	return &q.ov.cells[q.cellOf(i)].m
}

// at returns the i-th queued message (0 = head), the tests' random access.
// It panics if i is out of range.
func (q *FIFO[T]) at(i int) T { return *q.slot(i) }

// Each calls f on every queued message, head first.
func (q *FIFO[T]) Each(f func(m T)) {
	if q.n == 0 {
		return
	}
	f(q.first)
	for c := q.head; c != 0; c = q.ov.cells[c].next {
		f(q.ov.cells[c].m)
	}
}

// Drop removes the i-th queued message, modelling message loss.
// It returns false if i is out of range.
func (q *FIFO[T]) Drop(i int) bool {
	if i < 0 || i >= int(q.n) {
		return false
	}
	if i == 0 {
		q.Recv()
		return true
	}
	var prev, c int32 // c is message i, prev message i-1's cell (0 for the head)
	if i == 1 {
		c = q.head
		q.head = q.ov.cells[c].next
	} else {
		prev = q.cellOf(i - 1)
		c = q.ov.cells[prev].next
		q.ov.cells[prev].next = q.ov.cells[c].next
	}
	if c == q.tail {
		q.tail = prev
	}
	q.ov.release(c)
	q.n--
	return true
}

// Duplicate inserts a copy of the i-th queued message immediately after it,
// modelling message duplication. It returns false if i is out of range.
func (q *FIFO[T]) Duplicate(i int) bool {
	if i < 0 || i >= int(q.n) {
		return false
	}
	m := *q.slot(i)
	ov := q.overflow()
	c := ov.alloc(m) // the copy becomes message i+1
	if i == 0 {
		ov.cells[c].next = q.head
		q.head = c
	} else {
		prev := q.cellOf(i)
		ov.cells[c].next = ov.cells[prev].next
		ov.cells[prev].next = c
	}
	if ov.cells[c].next == 0 {
		q.tail = c
	}
	q.n++
	return true
}

// Mutate applies f to the i-th queued message in place, modelling message
// corruption. f must not send on a channel of the same Net. It returns
// false if i is out of range.
func (q *FIFO[T]) Mutate(i int, f func(*T)) bool {
	if i < 0 || i >= int(q.n) {
		return false
	}
	f(q.slot(i))
	return true
}

// Clear discards every queued message (channel flush / improper init).
func (q *FIFO[T]) Clear() {
	for c := q.head; c != 0; {
		next := q.ov.cells[c].next
		q.ov.release(c)
		c = next
	}
	q.n, q.head, q.tail = 0, 0, 0
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
	ov    slab[T]   // every channel's overflow cells
}

// NewNet returns a network of n processes with empty channels between every
// ordered pair of distinct processes.
func NewNet[T any](n int) *Net[T] {
	nn := &Net[T]{n: n, chans: make([]FIFO[T], n*n)}
	for i := range nn.chans {
		nn.chans[i].ov = &nn.ov
	}
	return nn
}

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
