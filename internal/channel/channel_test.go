package channel

import (
	"testing"
	"testing/quick"

	"github.com/graybox-stabilization/graybox/internal/seeded"
)

func TestFIFOOrder(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 10; i++ {
		q.Send(i)
	}
	for i := 0; i < 10; i++ {
		m, ok := q.Recv()
		if !ok || m != i {
			t.Fatalf("Recv #%d = (%d,%v), want (%d,true)", i, m, ok, i)
		}
	}
	if _, ok := q.Recv(); ok {
		t.Error("Recv on empty queue returned ok")
	}
}

func TestFIFOZeroValueUsable(t *testing.T) {
	var q FIFO[string]
	if q.Len() != 0 {
		t.Fatal("zero FIFO not empty")
	}
	q.Send("a")
	if q.Len() != 1 || q.at(0) != "a" {
		t.Fatal("Send on zero FIFO failed")
	}
}

// contents returns the queued messages, head first.
func contents[T any](q *FIFO[T]) []T {
	out := make([]T, q.Len())
	for i := range out {
		out[i] = q.at(i)
	}
	return out
}

func TestDrop(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 5; i++ {
		q.Send(i)
	}
	if !q.Drop(2) {
		t.Fatal("Drop(2) failed")
	}
	want := []int{0, 1, 3, 4}
	got := contents(&q)
	if len(got) != len(want) {
		t.Fatalf("after Drop: %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after Drop: %v, want %v", got, want)
		}
	}
	if q.Drop(99) || q.Drop(-1) {
		t.Error("Drop out of range returned true")
	}
}

func TestDuplicate(t *testing.T) {
	var q FIFO[int]
	q.Send(1)
	q.Send(2)
	q.Send(3)
	if !q.Duplicate(1) {
		t.Fatal("Duplicate(1) failed")
	}
	want := []int{1, 2, 2, 3}
	got := contents(&q)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after Duplicate: %v, want %v", got, want)
		}
	}
	if q.Duplicate(10) {
		t.Error("Duplicate out of range returned true")
	}
}

func TestMutate(t *testing.T) {
	var q FIFO[int]
	q.Send(5)
	if !q.Mutate(0, func(m *int) { *m = 99 }) {
		t.Fatal("Mutate failed")
	}
	if m := q.at(0); m != 99 {
		t.Errorf("after Mutate: head = %d, want 99", m)
	}
	if q.Mutate(3, func(*int) {}) {
		t.Error("Mutate out of range returned true")
	}
}

func TestClear(t *testing.T) {
	var q FIFO[int]
	q.Send(1)
	q.Send(2)
	q.Clear()
	if q.Len() != 0 {
		t.Error("Clear left messages queued")
	}
}

// Property: any interleaving of sends and receives preserves FIFO order.
func TestFIFOOrderProperty(t *testing.T) {
	f := func(ops []bool, seed int64) bool {
		rng := seeded.New(seed)
		var q FIFO[int]
		next := 0     // next value to send
		expected := 0 // next value we must receive
		for range ops {
			if rng.Intn(2) == 0 {
				q.Send(next)
				next++
			} else if m, ok := q.Recv(); ok {
				if m != expected {
					return false
				}
				expected++
			}
		}
		for {
			m, ok := q.Recv()
			if !ok {
				break
			}
			if m != expected {
				return false
			}
			expected++
		}
		return expected == next
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Drop/Duplicate/Clear never break the relative order of the
// surviving original messages (FIFO channels stay FIFO under faults).
func TestFaultsPreserveRelativeOrderProperty(t *testing.T) {
	f := func(nMsgs uint8, faults []uint8, seed int64) bool {
		rng := seeded.New(seed)
		var q FIFO[int]
		n := int(nMsgs%20) + 1
		for i := 0; i < n; i++ {
			q.Send(i)
		}
		for _, fop := range faults {
			if q.Len() == 0 {
				break
			}
			i := rng.Intn(q.Len())
			switch fop % 2 {
			case 0:
				q.Drop(i)
			case 1:
				q.Duplicate(i)
			}
		}
		// Surviving sequence must be non-decreasing.
		prev := -1
		for _, m := range contents(&q) {
			if m < prev {
				return false
			}
			prev = m
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNetFullMesh(t *testing.T) {
	nn := NewNet[int](4)
	eps := nn.Endpoints()
	if len(eps) != 12 {
		t.Fatalf("Endpoints = %d, want 12", len(eps))
	}
	for _, e := range eps {
		if nn.Chan(e.Src, e.Dst) == nil {
			t.Fatalf("missing channel %v", e)
		}
	}
	if nn.Chan(0, 0) != nil {
		t.Error("self channel exists")
	}
	if nn.Chan(0, 99) != nil {
		t.Error("out-of-range channel exists")
	}
}

func TestNetSendAndTotals(t *testing.T) {
	nn := NewNet[string](3)
	if !nn.Send(0, 1, "a") || !nn.Send(1, 2, "b") {
		t.Fatal("Send failed")
	}
	if nn.Send(0, 0, "self") {
		t.Error("Send to self succeeded")
	}
	if got := nn.TotalQueued(); got != 2 {
		t.Errorf("TotalQueued = %d, want 2", got)
	}
}

func TestEndpointString(t *testing.T) {
	e := Endpoint{Src: 1, Dst: 2}
	if e.String() != "1->2" {
		t.Errorf("String = %q", e.String())
	}
}
