package obs

import (
	"fmt"
	"sync"
)

// EventKind classifies trace events across all execution substrates.
type EventKind uint8

// Event kinds. Every switch dispatching over them must be total or carry a
// loud default; gblint's exhaustiveness pass enforces it.
//
//gblint:kindset obs-event
const (
	// EvSend is a message handed to the transport.
	EvSend EventKind = iota + 1
	// EvDeliver is a message delivered to its destination.
	EvDeliver
	// EvDrop is a message removed by a fault (loss, flush).
	EvDrop
	// EvDup is a message duplicated in flight.
	EvDup
	// EvWrapperFire is a level-2 wrapper guard opening (corrective sends).
	EvWrapperFire
	// EvRepair is a level-1 wrapper repairing a process in place.
	EvRepair
	// EvFault is an injected fault.
	EvFault
	// EvViolation is a spec-monitor verdict against the run.
	EvViolation
	// EvProgress is a progress event: a CS entry, a token delivery.
	EvProgress
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EvSend:
		return "send"
	case EvDeliver:
		return "deliver"
	case EvDrop:
		return "drop"
	case EvDup:
		return "dup"
	case EvWrapperFire:
		return "wrapper-fire"
	case EvRepair:
		return "repair"
	case EvFault:
		return "fault"
	case EvViolation:
		return "violation"
	case EvProgress:
		return "progress"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one trace record. Time is virtual ticks under the simulator and
// unix nanoseconds under the goroutine runtime. A and B are process ids
// (message source/destination; -1 when not applicable). N is an event-
// specific count (messages sent by a wrapper firing, for example). Detail
// is a static label — publishers pass constant strings so emission stays
// allocation-free.
type Event struct {
	Time   int64
	Kind   EventKind
	A, B   int
	N      int
	Detail string
}

// String renders the event for logs.
func (e Event) String() string {
	s := fmt.Sprintf("t=%d %s", e.Time, e.Kind)
	if e.A >= 0 {
		s += fmt.Sprintf(" a=%d", e.A)
	}
	if e.B >= 0 {
		s += fmt.Sprintf(" b=%d", e.B)
	}
	if e.N != 0 {
		s += fmt.Sprintf(" n=%d", e.N)
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Trace is a bounded ring buffer of events with an optional synchronous
// callback. Emission on a full ring overwrites the oldest event (the
// dropped count is kept). All methods are safe for concurrent use and
// no-ops on a nil receiver.
type Trace struct {
	mu      sync.Mutex
	buf     []Event     // guarded by mu
	start   int         // guarded by mu; index of the oldest retained event
	n       int         // guarded by mu; retained events
	total   uint64      // guarded by mu; events ever emitted
	onEvent func(Event) // guarded by mu
}

// NewTrace returns a trace sink retaining up to capacity events; onEvent,
// when non-nil, is called synchronously for each emission.
func NewTrace(capacity int, onEvent func(Event)) *Trace {
	if capacity < 1 {
		capacity = 1
	}
	return &Trace{buf: make([]Event, capacity), onEvent: onEvent}
}

// Emit records e.
func (t *Trace) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.n < len(t.buf) {
		t.buf[(t.start+t.n)%len(t.buf)] = e
		t.n++
	} else {
		t.buf[t.start] = e
		t.start = (t.start + 1) % len(t.buf)
	}
	t.total++
	cb := t.onEvent
	t.mu.Unlock()
	if cb != nil {
		cb(e)
	}
}

// Events returns the retained events, oldest first.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.buf[(t.start+i)%len(t.buf)]
	}
	return out
}

// Total returns how many events were ever emitted (retained or not).
func (t *Trace) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many events were overwritten by ring wraparound.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(t.n)
}
