package runtime

import "sync"

// mailbox is an unbounded FIFO queue with channel-based readiness
// signalling. It backs the process inboxes only (the medium in front of
// them is the Transport's); unboundedness means a transport delivering
// into an inbox never blocks, so an event loop whose own sends are
// delivered synchronously into other inboxes cannot backpressure-deadlock.
// Storage is a head-indexed ring, like the wire layer's msgQueue: a pop
// advances the head and shifts nothing, and capacity grows only when the
// queue outpaces its consumer and is reused after.
type mailbox[T any] struct {
	mu     sync.Mutex
	buf    []T           // guarded by mu; ring storage, len(buf) is the capacity
	head   int           // guarded by mu; index of the oldest item
	n      int           // guarded by mu; items queued
	signal chan struct{} // capacity 1: "items may be non-empty"
	closed bool          // guarded by mu
}

func newMailbox[T any]() *mailbox[T] {
	return &mailbox[T]{signal: make(chan struct{}, 1)}
}

// put enqueues v. It is a no-op after close.
func (m *mailbox[T]) put(v T) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	if m.n == len(m.buf) {
		m.grow()
	}
	m.buf[(m.head+m.n)%len(m.buf)] = v
	m.n++
	m.mu.Unlock()
	select {
	case m.signal <- struct{}{}:
	default:
	}
}

// grow doubles the ring of a full mailbox. Called with mu held.
func (m *mailbox[T]) grow() {
	buf := make([]T, max(2*len(m.buf), 16))
	for i := 0; i < m.n; i++ {
		buf[i] = m.buf[(m.head+i)%len(m.buf)]
	}
	m.buf, m.head = buf, 0
}

// tryGet dequeues the head without blocking.
func (m *mailbox[T]) tryGet() (v T, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n == 0 {
		return v, false
	}
	v = m.buf[m.head]
	var zero T
	m.buf[m.head] = zero // hold no reference past the pop
	m.head = (m.head + 1) % len(m.buf)
	m.n--
	return v, true
}

// ready returns a channel that receives whenever items may be available.
func (m *mailbox[T]) ready() <-chan struct{} { return m.signal }

// close marks the mailbox closed; subsequent puts are dropped.
func (m *mailbox[T]) close() {
	m.mu.Lock()
	m.closed = true
	m.buf, m.head, m.n = nil, 0, 0
	m.mu.Unlock()
}

// len returns the current queue length.
func (m *mailbox[T]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}
