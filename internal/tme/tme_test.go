package tme

import (
	"strings"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/ltime"
)

func TestPhaseValid(t *testing.T) {
	for _, p := range []Phase{Thinking, Hungry, Eating} {
		if !p.Valid() {
			t.Errorf("%v.Valid() = false", p)
		}
	}
	for _, p := range []Phase{0, 4, -1} {
		if p.Valid() {
			t.Errorf("Phase(%d).Valid() = true", int(p))
		}
	}
}

func TestPhaseString(t *testing.T) {
	cases := map[Phase]string{Thinking: "t", Hungry: "h", Eating: "e"}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
	if !strings.Contains(Phase(9).String(), "invalid") {
		t.Error("invalid phase String not marked")
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Request: "request", Reply: "reply", Release: "release"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind %d = %q, want %q", int(k), got, want)
		}
	}
	if !strings.Contains(Kind(0).String(), "invalid") {
		t.Error("invalid kind String not marked")
	}
}

func TestMessageString(t *testing.T) {
	m := Message{Kind: Request, TS: ltime.Timestamp{Clock: 3, PID: 1}, From: 1, To: 2}
	if got, want := m.String(), "request(3.1) 1->2"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// fakeView is a minimal SpecView for Snapshot tests.
type fakeView struct {
	id, n int
	phase Phase
	req   ltime.Timestamp
	local map[int]ltime.Timestamp
	recvd map[int]bool
}

func (f *fakeView) ID() int              { return f.id }
func (f *fakeView) N() int               { return f.n }
func (f *fakeView) Phase() Phase         { return f.phase }
func (f *fakeView) REQ() ltime.Timestamp { return f.req }
func (f *fakeView) LocalREQ(k int) (ltime.Timestamp, bool) {
	return f.local[k], f.recvd[k]
}

func TestSnapshot(t *testing.T) {
	v := &fakeView{
		id:    1,
		n:     3,
		phase: Hungry,
		req:   ltime.Timestamp{Clock: 5, PID: 1},
		local: map[int]ltime.Timestamp{0: {Clock: 2, PID: 0}, 2: {Clock: 9, PID: 2}},
		recvd: map[int]bool{0: true},
	}
	s := Snapshot(v)
	if s.ID != 1 || s.Phase != Hungry || s.REQ != v.req {
		t.Errorf("snapshot header wrong: %+v", s)
	}
	if s.Local[0] != v.local[0] || !s.Received[0] {
		t.Errorf("snapshot local[0] wrong: %+v", s)
	}
	if s.Local[2] != v.local[2] || s.Received[2] {
		t.Errorf("snapshot local[2] wrong: %+v", s)
	}
	// Own index untouched (zero values).
	if !s.Local[1].IsZero() || s.Received[1] {
		t.Errorf("snapshot self index touched: %+v", s)
	}
}
