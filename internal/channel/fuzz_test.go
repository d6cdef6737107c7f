package channel

import (
	"slices"
	"testing"
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
// queued, so a generated tape can aim its index. Every return value must
// agree, and after every step so must Len and each At(i). Sent values count up from 0, so a misplaced element shows as a
// wrong value, not only a wrong length.
func runFIFOTape(t *testing.T, steps int, step func(k, queued int) fifoStep) {
	t.Helper()
	var q FIFO[int]
	var ref sliceFIFO
	next := 0
	corrupt := func(v *int) { *v += 1 << 20 }
	for k := 0; k < steps; k++ {
		st := step(k, len(ref))
		switch st.op {
		case opSend:
			q.Send(next)
			ref.send(next)
			next++
		case opRecv:
			got, gotOK := q.Recv()
			want, wantOK := ref.recv()
			if got != want || gotOK != wantOK {
				t.Fatalf("step %d: Recv = (%d,%v), model (%d,%v)", k, got, gotOK, want, wantOK)
			}
		case opDrop:
			if got, want := q.Drop(st.i), ref.drop(st.i); got != want {
				t.Fatalf("step %d: Drop(%d) = %v, model %v", k, st.i, got, want)
			}
		case opDuplicate:
			if got, want := q.Duplicate(st.i), ref.duplicate(st.i); got != want {
				t.Fatalf("step %d: Duplicate(%d) = %v, model %v", k, st.i, got, want)
			}
		case opMutate:
			if got, want := q.Mutate(st.i, corrupt), ref.mutate(st.i, corrupt); got != want {
				t.Fatalf("step %d: Mutate(%d) = %v, model %v", k, st.i, got, want)
			}
		case opClear:
			q.Clear()
			ref = ref[:0]
		// The read must leave the queue as it was; what At returns is
		// compared after every step, below.
		case opAt:
			if st.i >= 0 && st.i < q.Len() {
				q.At(st.i)
			}
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d (op %d, i %d): Len = %d, model %v", k, st.op, st.i, q.Len(), ref)
		}
		for i, want := range ref {
			if got := q.At(i); got != want {
				t.Fatalf("step %d (op %d, i %d): At(%d) = %d, model %v", k, st.op, st.i, i, got, ref)
			}
		}
	}
	// Drain: exactly the model's messages, in its order.
	for _, want := range ref {
		if got, ok := q.Recv(); !ok || got != want {
			t.Fatalf("drain: Recv = (%d,%v), model %d", got, ok, want)
		}
	}
	if _, ok := q.Recv(); ok {
		t.Fatal("drain: Recv on a drained queue returned ok")
	}
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
// head lives in the struct and the rest in a slice, so index 0, index 1 and
// the tail each take a different branch, and Recv moves a message across
// the seam.
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

// TestFIFOAtOutOfRangePanics pins the contract At documents: with the head
// inline, index 0 of an empty queue is the one out-of-range index that no
// slice bounds check would catch by itself.
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
						t.Errorf("At(%d) with %d queued did not panic", i, queued)
					}
				}()
				q.At(i)
			}()
		}
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
