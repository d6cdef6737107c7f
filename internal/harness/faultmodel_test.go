package harness

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/graybox-stabilization/graybox/internal/channel"
	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/seeded"
	"github.com/graybox-stabilization/graybox/internal/sim"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wire"
)

const faultModelSeeds = 200

// captureLink records what the chaos proxy releases downstream.
type captureLink struct {
	mu  sync.Mutex
	got []tme.Message
}

func (l *captureLink) Start(func(int, tme.Message)) {}
func (l *captureLink) Close() error                 { return nil }
func (l *captureLink) Send(m tme.Message) {
	l.mu.Lock()
	l.got = append(l.got, m)
	l.mu.Unlock()
}

func (l *captureLink) released() []tme.Message {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]tme.Message(nil), l.got...)
}

// The simulator and the live chaos proxy apply one message-corruption
// model: from equal-seeded rngs they damage an equal message identically.
func TestFaultCorruptIsOneModelAcrossSubstrates(t *testing.T) {
	const n = 3
	ep := channel.Endpoint{Src: 0, Dst: 1}
	m := tme.Message{Kind: tme.Request, TS: ltime.Timestamp{Clock: 7, PID: 0}, From: 0, To: 1}

	s := sim.New(sim.Config{N: n, Seed: 1, NewNode: RA.Factory()})
	q := s.Net().Chan(ep.Src, ep.Dst)
	want := make([]tme.Message, faultModelSeeds)
	for seed := range want {
		q.Clear()
		q.Send(m)
		if !s.FaultCorrupt(ep, 0, seeded.New(int64(seed))) {
			t.Fatal("sim FaultCorrupt missed an in-flight message")
		}
		want[seed], _ = q.Recv()
	}

	// Every message is held far longer than corrupting all of them takes,
	// then released in queue order.
	const hold = 100 * time.Millisecond
	c := wire.NewChaos(wire.ChaosConfig{N: n, Seed: 1, MinDelay: hold, MaxDelay: hold})
	defer c.Close()
	out := &captureLink{}
	link := c.Pipe(out)
	for range want {
		link.Send(m)
	}
	for seed := range want {
		if !c.FaultCorrupt(ep, seed, seeded.New(int64(seed))) {
			t.Fatalf("chaos FaultCorrupt missed held message %d", seed)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); len(out.released()) < len(want); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("chaos released %d of %d messages", len(out.released()), len(want))
		}
	}
	damaged := 0
	for seed, got := range out.released() {
		if got != want[seed] {
			t.Fatalf("seed %d: chaos made %v, sim made %v", seed, got, want[seed])
		}
		if got != m {
			damaged++
		}
	}
	if damaged == 0 {
		t.Fatal("no seed damaged the message")
	}
}

// The simulator's state perturbation is tme.RandomCorruption, whole: a
// perturbed process reaches the same spec state as one corrupted directly
// with the drawn corruption.
func TestFaultPerturbIsRandomCorruption(t *testing.T) {
	const n, id = 3, 1
	for _, algo := range []Algo{RA, Lamport} {
		boot := func() *sim.Sim {
			s := sim.New(sim.Config{N: n, Seed: 1, NewNode: algo.Factory()})
			s.Request(0)
			s.Request(id)
			s.Run(3)
			return s
		}
		for seed := int64(0); seed < faultModelSeeds; seed++ {
			perturbed, direct := boot(), boot()
			if !perturbed.FaultPerturb(id, seeded.New(seed)) {
				t.Fatalf("%v: FaultPerturb not applied", algo)
			}
			direct.Node(id).(tme.Corruptible).Corrupt(tme.RandomCorruption(seeded.New(seed), id, n))
			got, want := tme.Snapshot(perturbed.Node(id)), tme.Snapshot(direct.Node(id))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v seed %d: perturbed state %+v, corrupted state %+v", algo, seed, got, want)
			}
		}
	}
}
