package fault

import (
	"math/rand"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/channel"
	"github.com/graybox-stabilization/graybox/internal/ra"
	"github.com/graybox-stabilization/graybox/internal/seeded"
	"github.com/graybox-stabilization/graybox/internal/sim"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

func raSim(seed int64, wrapped bool) *sim.Sim {
	cfg := sim.Config{
		N:        3,
		Seed:     seed,
		NewNode:  func(id, n int) tme.Node { return ra.New(id, n) },
		Workload: true,
	}
	if wrapped {
		cfg.NewWrapper = func(int) wrapper.Level2 { return wrapper.NewTimed(5) }
	}
	return sim.New(cfg)
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		MessageLoss: "loss", MessageDup: "dup", MessageCorrupt: "corrupt",
		StateCorrupt: "state", ChannelFlush: "flush", Kind(0): "unknown",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestMixPickRespectsZeroWeights(t *testing.T) {
	in := NewInjector(1, Mix{Loss: 1})
	for i := 0; i < 100; i++ {
		if k := in.mix.Pick(in.pick.Rand()); k != MessageLoss {
			t.Fatalf("pick = %v with loss-only mix", k)
		}
	}
}

func TestMixPickAllZeroDefaultsUniform(t *testing.T) {
	in := NewInjector(2, Mix{})
	seen := map[Kind]bool{}
	for i := 0; i < 500; i++ {
		seen[in.mix.Pick(in.pick.Rand())] = true
	}
	for _, k := range []Kind{MessageLoss, MessageDup, MessageCorrupt, StateCorrupt, ChannelFlush} {
		if !seen[k] {
			t.Errorf("class %v never drawn from the default mix", k)
		}
	}
}

func TestBurstCountsFaults(t *testing.T) {
	s := raSim(1, false)
	in := NewInjector(7, DefaultMix)
	s.At(10, func(s *sim.Sim) { in.Burst(s, 5) })
	s.Run(20)
	if in.Count() != 5 {
		t.Errorf("Count = %d, want 5", in.Count())
	}
}

func TestScheduleInstallsBursts(t *testing.T) {
	s := raSim(2, false)
	in := NewInjector(8, DefaultMix)
	in.Schedule(s, []int64{10, 20, 30}, 2)
	s.Run(40)
	if in.Count() != 6 {
		t.Errorf("Count = %d, want 6", in.Count())
	}
}

func TestMessageFaultsOnEmptyNetworkAreNoops(t *testing.T) {
	s := sim.New(sim.Config{
		N:       2,
		Seed:    3,
		NewNode: func(id, n int) tme.Node { return ra.New(id, n) },
	})
	in := NewInjector(9, Mix{Loss: 1, Dup: 1, Corrupt: 1, Flush: 1})
	s.At(0, func(s *sim.Sim) { in.Burst(s, 20) })
	s.Run(10)
	// Nothing to assert beyond not panicking and channels staying empty.
	if s.Net().TotalQueued() != 0 {
		t.Error("faults materialized messages from nothing")
	}
}

// drainingSurface is a live-style surface: its one queue empties between
// the injector's look for a non-empty channel and its pick of an index.
type drainingSurface struct {
	*sim.Sim
	looks int
}

func (d *drainingSurface) QueueLen(channel.Endpoint) int {
	d.looks++
	if d.looks%2 == 1 {
		return 1
	}
	return 0
}

// On a live surface the queue can drain under the injector; the message
// faults then hit nothing instead of asking the rng for an index below 0.
func TestMessageFaultsSurviveADrainingQueue(t *testing.T) {
	d := &drainingSurface{Sim: raSim(2, false)}
	in := NewInjector(9, Mix{})
	for _, k := range []Kind{MessageLoss, MessageDup, MessageCorrupt} {
		in.Apply(d, k)
	}
}

// freshNonEmptyChannel is nonEmptyChannel as it was before it reused a
// scratch list: a fresh candidate slice per call, one draw.
func freshNonEmptyChannel(rng *rand.Rand, s Surface) (channel.Endpoint, bool) {
	var candidates []channel.Endpoint
	for _, ep := range s.Channels() {
		if s.QueueLen(ep) > 0 {
			candidates = append(candidates, ep)
		}
	}
	if len(candidates) == 0 {
		return channel.Endpoint{}, false
	}
	return candidates[rng.Intn(len(candidates))], true
}

// TestNonEmptyChannelMatchesFreshSlice: reusing the scratch list changes
// neither the endpoint picked nor the draws. Over 200 seeds, an injector
// and its aim stream's twin running the fresh-slice version pick the same
// endpoint on every call, through states with empty and busy networks.
func TestNonEmptyChannelMatchesFreshSlice(t *testing.T) {
	hits := 0
	for seed := int64(1); seed <= 200; seed++ {
		s := raSim(seed, true)
		in := NewInjector(seed, DefaultMix)
		rng := seeded.New(seeded.Derive(seed, aimStream))
		for step := 0; step < 30; step++ {
			got, gotOK := in.nonEmptyChannel(s)
			want, wantOK := freshNonEmptyChannel(rng, s)
			if got != want || gotOK != wantOK {
				t.Fatalf("seed %d, t=%d: picked %v,%v; fresh slice picks %v,%v", seed, s.Now(), got, gotOK, want, wantOK)
			}
			if gotOK {
				hits++
			}
			s.Run(s.Now() + 3)
		}
		if in.aim.Rand().Int63() != rng.Int63() {
			t.Fatalf("seed %d: the injector's draws diverged from the fresh-slice version's", seed)
		}
	}
	if hits == 0 {
		t.Fatal("no call found a non-empty channel; the comparison is vacuous")
	}
}

func TestStateCorruptChangesSomethingEventually(t *testing.T) {
	s := raSim(4, false)
	before := tme.Snapshot(s.Node(0))
	in := NewInjector(10, Mix{State: 1})
	changed := false
	for i := 0; i < 20 && !changed; i++ {
		in.Burst(s, 3)
		for id := 0; id < s.N(); id++ {
			after := tme.Snapshot(s.Node(id))
			if after.Phase != before.Phase || after.REQ != before.REQ {
				changed = true
			}
		}
	}
	if !changed {
		t.Error("30 state faults changed nothing observable")
	}
}

func TestDeterministicInjection(t *testing.T) {
	run := func() (int, int) {
		s := raSim(5, true)
		in := NewInjector(12, DefaultMix)
		in.Schedule(s, []int64{50, 100}, 10)
		s.Run(2000)
		return len(s.Metrics().Entries), s.Metrics().ProgramMsgs
	}
	e1, p1 := run()
	e2, p2 := run()
	if e1 != e2 || p1 != p2 {
		t.Errorf("same seeds diverged: (%d,%d) vs (%d,%d)", e1, p1, e2, p2)
	}
}

// Theorem 8 at system scale: a wrapped RA system subjected to heavy fault
// bursts keeps making progress afterwards.
func TestWrappedSystemSurvivesBursts(t *testing.T) {
	s := raSim(6, true)
	in := NewInjector(13, DefaultMix)
	in.Schedule(s, []int64{100, 150, 200}, 15)
	s.Run(5000)
	var after int
	for _, e := range s.Metrics().Entries {
		if e.Time > 200 {
			after++
		}
	}
	if after == 0 {
		t.Fatal("no CS entries after the last fault burst — wrapped system did not recover")
	}
}

// TestImproperInit corrupts every process before the run starts, modelling
// arbitrary (improper) initialization.
func TestImproperInit(t *testing.T) {
	s := raSim(7, true)
	rng := seeded.New(21)
	for i := 0; i < s.N(); i++ {
		s.FaultPerturb(i, rng)
	}
	// At least one node should start in a non-Init state.
	perturbed := false
	for i := 0; i < s.N(); i++ {
		snap := tme.Snapshot(s.Node(i))
		if snap.Phase != tme.Thinking || !snap.REQ.IsZero() {
			perturbed = true
		}
		for k := range snap.Local {
			if !snap.Local[k].IsZero() || snap.Received[k] {
				perturbed = true
			}
		}
	}
	if !perturbed {
		t.Error("improper initialization left every node in the Init state")
	}
	// And the wrapped system still converges to progress.
	s.Run(5000)
	if len(s.Metrics().Entries) == 0 {
		t.Fatal("no entries after improper initialization with wrapper")
	}
}

func TestDropAllInFlight(t *testing.T) {
	s := raSim(8, false)
	s.Request(0)
	s.Run(0)
	if s.Net().TotalQueued() == 0 {
		t.Fatal("no in-flight messages to drop")
	}
	DropAllInFlight(s)
	if s.Net().TotalQueued() != 0 {
		t.Error("DropAllInFlight left messages queued")
	}
}
