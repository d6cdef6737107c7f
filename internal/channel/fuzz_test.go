package channel

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"
)

// sliceFIFO is the reference model of the differential tests: the queue as
// a plain slice, every operation written the obvious way.
type sliceFIFO []int

func (s *sliceFIFO) send(m int) { *s = append(*s, m) }

func (s *sliceFIFO) recv() (int, bool) {
	if len(*s) == 0 {
		return 0, false
	}
	m := (*s)[0]
	*s = (*s)[1:]
	return m, true
}

func (s *sliceFIFO) drop(i int) bool {
	if i < 0 || i >= len(*s) {
		return false
	}
	*s = slices.Delete(*s, i, i+1)
	return true
}

func (s *sliceFIFO) duplicate(i int) bool {
	if i < 0 || i >= len(*s) {
		return false
	}
	*s = slices.Insert(*s, i+1, (*s)[i])
	return true
}

func (s *sliceFIFO) mutate(i int, f func(*int)) bool {
	if i < 0 || i >= len(*s) {
		return false
	}
	f(&(*s)[i])
	return true
}

// The operations of a differential tape.
const (
	opSend = iota
	opRecv
	opDrop
	opDuplicate
	opMutate
	opClear
	opAt
	numOps
)

// fifoStep is one operation of a tape; i is the index for the operations
// that take one (Len() and -1 are the out-of-range probes).
type fifoStep struct{ op, i int }

// runFIFOTape applies a tape of the given length to a FIFO and to the slice
// model side by side; step k is asked for with the number of messages then
// queued, so a generated tape can aim its index.
func runFIFOTape(t *testing.T, steps int, step func(k, queued int) fifoStep) {
	t.Helper()
	var q FIFO[int]
	runTape(t, []*FIFO[int]{&q}, steps, func(k int, queued []int) (int, fifoStep) {
		return 0, step(k, queued[0])
	})
}

// runTape applies a tape of the given length to the queues qs, each beside
// a slice model of its own; step k is asked for with the number of messages
// then queued on each, and names the queue it works on and the operation.
// Every return value must agree, and after every step so must Len, each
// at(i) and the Each order of every queue, the ones the step did not touch
// included. Sent values count up from 0 across all queues, so a misplaced
// element, or one that moved to another queue, shows as a wrong value, not
// only a wrong length.
func runTape(t *testing.T, qs []*FIFO[int], steps int, step func(k int, queued []int) (int, fifoStep)) {
	t.Helper()
	refs := make([]sliceFIFO, len(qs))
	queued := make([]int, len(qs))
	next := 0
	corrupt := func(v *int) { *v += 1 << 20 }
	for k := 0; k < steps; k++ {
		for c := range refs {
			queued[c] = len(refs[c])
		}
		c, st := step(k, queued)
		q, ref := qs[c], &refs[c]
		switch st.op {
		case opSend:
			q.Send(next)
			ref.send(next)
			next++
		case opRecv:
			got, gotOK := q.Recv()
			want, wantOK := ref.recv()
			if got != want || gotOK != wantOK {
				t.Fatalf("step %d: queue %d Recv = (%d,%v), model (%d,%v)", k, c, got, gotOK, want, wantOK)
			}
		case opDrop:
			if got, want := q.Drop(st.i), ref.drop(st.i); got != want {
				t.Fatalf("step %d: queue %d Drop(%d) = %v, model %v", k, c, st.i, got, want)
			}
		case opDuplicate:
			if got, want := q.Duplicate(st.i), ref.duplicate(st.i); got != want {
				t.Fatalf("step %d: queue %d Duplicate(%d) = %v, model %v", k, c, st.i, got, want)
			}
		case opMutate:
			if got, want := q.Mutate(st.i, corrupt), ref.mutate(st.i, corrupt); got != want {
				t.Fatalf("step %d: queue %d Mutate(%d) = %v, model %v", k, c, st.i, got, want)
			}
		case opClear:
			q.Clear()
			*ref = (*ref)[:0]
		// The read must leave the queue as it was; what at returns is
		// compared after every step, below.
		case opAt:
			if st.i >= 0 && st.i < q.Len() {
				q.at(st.i)
			}
		}
		for d, q := range qs {
			if msg := diffModel(q, refs[d]); msg != "" {
				t.Fatalf("step %d (queue %d, op %d, i %d): queue %d %s", k, c, st.op, st.i, d, msg)
			}
		}
	}
	// Drain: exactly each model's messages, in its order.
	for c, q := range qs {
		for _, want := range refs[c] {
			if got, ok := q.Recv(); !ok || got != want {
				t.Fatalf("drain: queue %d Recv = (%d,%v), model %d", c, got, ok, want)
			}
		}
		if _, ok := q.Recv(); ok {
			t.Fatalf("drain: Recv on drained queue %d returned ok", c)
		}
	}
}

// diffModel describes how q differs from its model by Len, at and Each, or
// returns "" when it does not.
func diffModel(q *FIFO[int], ref sliceFIFO) string {
	if q.Len() != len(ref) {
		return fmt.Sprintf("Len = %d, model %v", q.Len(), ref)
	}
	for i, want := range ref {
		if got := q.at(i); got != want {
			return fmt.Sprintf("at(%d) = %d, model %v", i, got, ref)
		}
	}
	var each []int
	q.Each(func(m int) { each = append(each, m) })
	if !slices.Equal(each, ref) {
		return fmt.Sprintf("Each visits %v, model %v", each, ref)
	}
	return ""
}

// FuzzFIFOOps drives a FIFO and the slice model with one arbitrary
// operation tape. A byte picks the operation (mod numOps) and, from its
// quotient, the index: 0 up to and including Len(), so the first
// out-of-range index is probed too.
func FuzzFIFOOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 1})
	f.Add([]byte{2, 2, 2})
	f.Add([]byte{})
	// Three queued, then duplicate/drop/mutate at the head, at index 1 and
	// at the tail, with receives promoting rest[0] in between.
	f.Add([]byte{0, 0, 0, 3, 1, 3 + numOps, 1, 3 + 2*numOps, 2, 2 + numOps, 4, 4 + numOps, 1, 1, 1})
	f.Add([]byte{0, 0, 5, 0, 0, opAt + numOps, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		runFIFOTape(t, len(ops), func(k, queued int) fifoStep {
			b := int(ops[k])
			return fifoStep{op: b % numOps, i: b / numOps % (queued + 1)}
		})
	})
}

// TestFIFOMatchesSliceModel walks the seams of the inline-head layout: the
// head lives in the struct and the rest in linked slab cells, so index 0,
// index 1 and the tail each take a different branch, and Recv moves a
// message across the seam.
func TestFIFOMatchesSliceModel(t *testing.T) {
	send := func(n int) []fifoStep { return make([]fifoStep, n) } // opSend is the zero op
	tapes := []struct {
		name string
		tape []fifoStep
	}{
		{"empty queue refuses everything", []fifoStep{
			{opRecv, 0}, {opDrop, 0}, {opDuplicate, 0}, {opMutate, 0}, {opAt, 0}, {opClear, 0},
		}},
		{"one message stays inline", []fifoStep{
			{opSend, 0}, {opAt, 0}, {opMutate, 0}, {opRecv, 0}, {opRecv, 0}, {opSend, 0}, {opRecv, 0},
		}},
		{"recv promotes rest[0]", append(send(4),
			fifoStep{opRecv, 0}, fifoStep{opRecv, 0}, fifoStep{opSend, 0}, fifoStep{opRecv, 0}, fifoStep{opRecv, 0}, fifoStep{opRecv, 0},
		)},
		{"drop at 0, 1, tail, out of range", append(send(5),
			fifoStep{opDrop, 0}, fifoStep{opDrop, 1}, fifoStep{opDrop, 2}, fifoStep{opDrop, 2}, fifoStep{opDrop, -1},
			fifoStep{opDrop, 0}, fifoStep{opDrop, 0}, fifoStep{opDrop, 0},
		)},
		{"duplicate at 1, 0, tail, out of range", append(send(3),
			fifoStep{opDuplicate, 1}, fifoStep{opDuplicate, 0}, fifoStep{opDuplicate, 4}, fifoStep{opDuplicate, 6}, fifoStep{opDuplicate, -1},
		)},
		{"duplicate the only message", []fifoStep{
			{opSend, 0}, {opDuplicate, 0}, {opRecv, 0}, {opDuplicate, 0}, {opDuplicate, 1},
		}},
		{"mutate at 0, 1, tail, out of range", append(send(3),
			fifoStep{opMutate, 0}, fifoStep{opMutate, 1}, fifoStep{opMutate, 2}, fifoStep{opMutate, 3}, fifoStep{opMutate, -1},
			fifoStep{opRecv, 0}, fifoStep{opMutate, 0},
		)},
		{"clear then reuse", append(send(3),
			fifoStep{opClear, 0}, fifoStep{opRecv, 0}, fifoStep{opSend, 0}, fifoStep{opSend, 0}, fifoStep{opDuplicate, 1},
			fifoStep{opClear, 0}, fifoStep{opClear, 0}, fifoStep{opSend, 0}, fifoStep{opAt, 0},
		)},
	}
	for _, tc := range tapes {
		t.Run(tc.name, func(t *testing.T) {
			runFIFOTape(t, len(tc.tape), func(k, _ int) fifoStep { return tc.tape[k] })
		})
	}
}

// TestFIFOAtOutOfRangePanics pins the contract at documents: every index
// outside [0, Len()) panics, index 0 of an empty queue (the inline head's
// place) and the first index past the tail included.
func TestFIFOAtOutOfRangePanics(t *testing.T) {
	for _, queued := range []int{0, 1, 3} {
		for _, i := range []int{-1, queued, queued + 1} {
			var q FIFO[int]
			for k := 0; k < queued; k++ {
				q.Send(k)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("at(%d) with %d queued did not panic", i, queued)
					}
				}()
				q.at(i)
			}()
		}
	}
}

// TestNetOverflowSteadyStateAllocatesNothing: once one burst has grown the
// Net's overflow slab, later bursts of several messages on every channel,
// each drained in full, reuse its freed cells and never touch the heap.
func TestNetOverflowSteadyStateAllocatesNothing(t *testing.T) {
	type msg struct{ a, b, c, d, e, f int64 } // the size of a tme.Message
	const n, burst = 8, 4
	nn := NewNet[msg](n)
	eps := nn.Endpoints()
	round := func() {
		for _, ep := range eps {
			for k := 0; k < burst; k++ {
				nn.Send(ep.Src, ep.Dst, msg{a: int64(ep.Src), b: int64(ep.Dst), c: int64(k)})
			}
		}
		for _, ep := range eps {
			q := nn.Chan(ep.Src, ep.Dst)
			for k := 0; k < burst; k++ {
				if m, ok := q.Recv(); !ok || m != (msg{a: int64(ep.Src), b: int64(ep.Dst), c: int64(k)}) {
					t.Fatalf("%v: Recv #%d = (%v,%v)", ep, k, m, ok)
				}
			}
		}
	}
	round() // grows the slab to the burst's overflow
	cells := len(nn.ov.cells)
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a drained burst of %d on each of %d channels allocates %.1f times, want 0", burst, len(eps), allocs)
	}
	// AllocsPerRun rounds down, and a slab that leaked its freed cells
	// would still grow only by doubling: its length is the direct check.
	if got := len(nn.ov.cells); got != cells {
		t.Fatalf("slab grew from %d to %d cells over drained bursts, want every cell reused", cells, got)
	}
}

// TestFIFOHeaderSize: every channel of a mesh pays its header, so it stays
// at the inline head plus three int32 links and the slab pointer.
func TestFIFOHeaderSize(t *testing.T) {
	type msg struct{ a, b, c, d, e, f int64 } // the size of a tme.Message
	if got := unsafe.Sizeof(FIFO[msg]{}); got > 72 {
		t.Fatalf("FIFO header of a 48-byte message is %d bytes, want at most 72", got)
	}
}

// TestFIFOSendRecvDoesNotAllocate: a channel that never holds more than
// one message never touches the heap, from its first message on.
func TestFIFOSendRecvDoesNotAllocate(t *testing.T) {
	type msg struct{ a, b, c, d, e, f int64 } // the size of a tme.Message
	const runs = 100
	fresh := make([]FIFO[msg], runs+1) // AllocsPerRun warms up with one extra call
	k := 0
	allocs := testing.AllocsPerRun(runs, func() {
		q := &fresh[k]
		k++
		q.Send(msg{a: 1})
		if m, ok := q.Recv(); !ok || m.a != 1 {
			t.Fatalf("Recv = (%v,%v)", m, ok)
		}
	})
	if allocs != 0 {
		t.Fatalf("Send+Recv on a fresh channel allocates %.1f times, want 0", allocs)
	}
}

// FuzzNetOps drives the channels of one Net, which share the overflow slab,
// each beside its own slice model, with one arbitrary operation tape. Each
// step takes two bytes: the first picks the channel, the second the
// operation (mod numOps) and, from its quotient, the index, 0 up to and
// including that channel's Len(). After every step every channel must equal
// its model, so an operation that wrote into a cell another channel links
// to fails on that other channel.
func FuzzNetOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 1, 1, 1})
	f.Add([]byte{})
	// Two channels interleave overflow cells, then one is cleared and the
	// other duplicates into the freed cells.
	f.Add([]byte{0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, opClear, 1, opDuplicate + numOps, 1, opDuplicate, 1, 1})
	f.Add([]byte{2, 0, 2, 0, 2, 0, 3, 0, 3, 0, 2, opDrop + numOps, 3, opMutate + numOps, 2, opRecv, 3, opAt + numOps})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 3
		nn := NewNet[int](n)
		eps := nn.Endpoints()
		qs := make([]*FIFO[int], len(eps))
		for c, ep := range eps {
			qs[c] = nn.Chan(ep.Src, ep.Dst)
		}
		runTape(t, qs, len(ops)/2, func(k int, queued []int) (int, fifoStep) {
			c := int(ops[2*k]) % len(qs)
			b := int(ops[2*k+1])
			return c, fifoStep{op: b % numOps, i: b / numOps % (queued[c] + 1)}
		})
	})
}
