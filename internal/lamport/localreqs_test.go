package lamport

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/seeded"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

// localREQPerK is j.REQ_k read one k at a time, one scan of the request
// queue per k: the definition LocalREQs' single pass is held to, kept here
// so that a change to both LocalREQ and LocalREQs cannot agree by accident.
func localREQPerK(nd *Node, k int) (ltime.Timestamp, bool) {
	if k < 0 || k >= nd.n || k == nd.id {
		return ltime.Zero, false
	}
	for _, ts := range nd.queue {
		if ts.PID == k {
			if nd.grant[k] || ts.Less(nd.req) {
				return ts, true
			}
			break
		}
	}
	if nd.grant[k] {
		return nd.heard[k], false
	}
	return ltime.Zero, false
}

// draws is a source of bounded choices: a seeded *rand.Rand or a fuzz tape.
type draws interface{ Intn(n int) int }

// tape draws choices from fuzz input, zero once it runs out.
type tape []byte

func (t *tape) Intn(n int) int {
	if len(*t) == 0 {
		return 0
	}
	b := (*t)[0]
	*t = (*t)[1:]
	return int(b) % n
}

// mutate applies one operation drawn from d to nd: a client action, an
// internal step, a delivered message (any kind, any sender, in range or
// not), a corruption (the fault model's, which scrambles the queue a third
// of the time, or one naming out-of-range processes), or a forged queue
// entry, grant or heard value. Forged entries may name no process, the
// process itself, or a process already queued, and break the queue's order.
func mutate(nd *Node, d draws) {
	n := nd.n
	ts := func() ltime.Timestamp { return ltime.Timestamp{Clock: uint64(d.Intn(8)), PID: d.Intn(n+3) - 1} }
	switch d.Intn(8) {
	case 0:
		nd.RequestCS()
	case 1:
		nd.ReleaseCS()
	case 2:
		nd.Step()
	case 3:
		nd.Deliver(tme.Message{Kind: tme.Kind(d.Intn(5)), TS: ts(), From: d.Intn(n+2) - 1, To: nd.id})
	case 4:
		nd.Corrupt(tme.RandomCorruption(seeded.New(int64(d.Intn(1<<8))), nd.id, n))
	case 5:
		nd.Corrupt(tme.Corruption{
			LocalREQ:      map[int]ltime.Timestamp{-1: ts(), n: ts(), d.Intn(n): ts()},
			DropReceived:  []int{-1, n + d.Intn(2)},
			ForgeReceived: []int{n, d.Intn(n)},
		})
	case 6:
		e := ts()
		if d.Intn(3) == 0 {
			e.PID = nd.id // the process's own request
		}
		nd.queue = append(nd.queue, e)
	default:
		k := d.Intn(n)
		nd.grant[k] = !nd.grant[k]
		nd.heard[k] = ts()
	}
}

// checkLocalREQs holds LocalREQs, with and without received flags, and
// LocalREQ to the per-k definition for every k, requires LocalREQs to
// write nothing past N(), and holds tme.Snapshot to the per-variable reads.
func checkLocalREQs(t testing.TB, nd *Node, what string) {
	t.Helper()
	sentinel := ltime.Timestamp{Clock: 1 << 40, PID: -7}
	local, copies := make([]ltime.Timestamp, nd.n+1), make([]ltime.Timestamp, nd.n+1)
	received := make([]bool, nd.n+1)
	for k := range local {
		local[k], copies[k], received[k] = sentinel, sentinel, true
	}
	nd.LocalREQs(local, received)
	nd.LocalREQs(copies, nil)
	for k := 0; k < nd.n; k++ {
		ts, rcvd := localREQPerK(nd, k)
		if local[k] != ts || received[k] != rcvd || copies[k] != ts {
			t.Fatalf("%s: k=%d: LocalREQs = (%v,%v), copies only %v; per-k definition (%v,%v) (queue %v, grant %v, heard %v, REQ %v)",
				what, k, local[k], received[k], copies[k], ts, rcvd, nd.queue, nd.grant, nd.heard, nd.req)
		}
		if gts, grcvd := nd.LocalREQ(k); gts != ts || grcvd != rcvd {
			t.Fatalf("%s: k=%d: LocalREQ = (%v,%v), per-k definition (%v,%v)", what, k, gts, grcvd, ts, rcvd)
		}
	}
	if local[nd.n] != sentinel || !received[nd.n] || copies[nd.n] != sentinel {
		t.Fatalf("%s: LocalREQs wrote past N() = %d", what, nd.n)
	}
	got := tme.Snapshot(nd)
	want := tme.SpecState{ID: nd.ID(), Phase: nd.Phase(), REQ: nd.REQ(), TS: nd.ClockNow(), HasTS: true,
		Local: make([]ltime.Timestamp, nd.n), Received: make([]bool, nd.n)}
	for k := range want.Local {
		want.Local[k], want.Received[k] = localREQPerK(nd, k)
	}
	if !specEqual(&got, &want) {
		t.Fatalf("%s: Snapshot = %+v, per-variable reads %+v", what, got, want)
	}
}

func specEqual(a, b *tme.SpecState) bool {
	if a.ID != b.ID || a.Phase != b.Phase || a.REQ != b.REQ || a.TS != b.TS || a.HasTS != b.HasTS ||
		len(a.Local) != len(b.Local) || len(a.Received) != len(b.Received) {
		return false
	}
	for k := range a.Local {
		if a.Local[k] != b.Local[k] || a.Received[k] != b.Received[k] {
			return false
		}
	}
	return true
}

// walkLocalREQs checks a node of 1 to 6 processes, drawn from d, after
// each of steps mutations.
func walkLocalREQs(t testing.TB, d draws, steps int) {
	n := 1 + d.Intn(6)
	nd := New(d.Intn(n), n)
	checkLocalREQs(t, nd, "init")
	for step := 0; step < steps; step++ {
		mutate(nd, d)
		checkLocalREQs(t, nd, "step")
	}
}

// TestLocalREQsMatchesPerK holds the one-pass read to the per-k definition
// over 300 seeded walks of random, corrupted and forged states (about
// 0.05 s).
func TestLocalREQsMatchesPerK(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		walkLocalREQs(t, seeded.New(seed), 60)
	}
}

// FuzzLocalREQs is TestLocalREQsMatchesPerK's walk with fuzzed choices.
func FuzzLocalREQs(f *testing.F) {
	f.Add([]byte{4, 2, 0, 6, 6, 3, 1, 7, 2, 5, 0, 4, 4, 1, 6, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		steps := min(len(data)/3+1, 200)
		tp := tape(data)
		walkLocalREQs(t, &tp, steps)
	})
}
