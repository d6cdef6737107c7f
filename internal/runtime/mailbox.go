package runtime

import "sync"

// mailbox is an unbounded FIFO queue with channel-based readiness
// signalling. The transport uses one per directed edge and one per process
// inbox; unboundedness means producers never block, so the mesh cannot
// backpressure-deadlock (an event loop blocked on a full channel while its
// own inbox fills).
type mailbox[T any] struct {
	mu     sync.Mutex
	items  []T           // guarded by mu
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
	m.items = append(m.items, v)
	m.mu.Unlock()
	select {
	case m.signal <- struct{}{}:
	default:
	}
}

// tryGet dequeues the head without blocking.
func (m *mailbox[T]) tryGet() (v T, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.items) == 0 {
		return v, false
	}
	v = m.items[0]
	copy(m.items, m.items[1:])
	m.items = m.items[:len(m.items)-1]
	return v, true
}

// ready returns a channel that receives whenever items may be available.
func (m *mailbox[T]) ready() <-chan struct{} { return m.signal }

// close marks the mailbox closed; subsequent puts are dropped.
func (m *mailbox[T]) close() {
	m.mu.Lock()
	m.closed = true
	m.items = nil
	m.mu.Unlock()
}

// len returns the current queue length.
func (m *mailbox[T]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items)
}
