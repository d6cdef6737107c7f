package engine

// eventHeap is a binary min-heap ordered by (time, seq): the overflow level
// of eventQueue, and the reference its differential tests compare against.
type eventHeap struct {
	items []Event
}

func (h *eventHeap) less(i, j int) bool { return h.items[i].before(&h.items[j]) }

// before is the queue order: earlier time first, schedule order (seq)
// within a tick.
func (e *Event) before(o *Event) bool {
	if e.Time != o.Time {
		return e.Time < o.Time
	}
	return e.Seq < o.Seq
}

func (h *eventHeap) push(e Event) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *eventHeap) pop() (Event, bool) {
	if len(h.items) == 0 {
		return Event{}, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[last] = Event{} // release the closure, if any, to the GC
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.items) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.items) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top, true
}

func (h *eventHeap) len() int { return len(h.items) }
