package wire

import (
	"math/rand"
	"testing"
	"time"

	"github.com/graybox-stabilization/graybox/internal/channel"
	"github.com/graybox-stabilization/graybox/internal/fault"
	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/seeded"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

// fakeLink records sends in-process (no sockets).
type fakeLink struct{ c collector }

func (f *fakeLink) Start(func(dst int, m tme.Message)) {}
func (f *fakeLink) Send(m tme.Message)                 { f.c.deliver(m.To, m) }
func (f *fakeLink) Close() error                       { return nil }

func TestChaosReleasesFIFO(t *testing.T) {
	ch := NewChaos(ChaosConfig{N: 2, Seed: 1, MinDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	defer ch.Close()
	next := &fakeLink{}
	link := ch.Pipe(next)
	const n = 20
	for i := 0; i < n; i++ {
		link.Send(tme.Message{Kind: tme.Request, TS: ltime.Timestamp{Clock: uint64(i)}, From: 0, To: 1})
	}
	got := next.c.waitLen(t, n, 5*time.Second)
	for i, m := range got {
		if m.TS.Clock != uint64(i) {
			t.Fatalf("release %d = %+v (FIFO violated)", i, m)
		}
	}
}

// A max below the min becomes the default max, raised to the min when the
// default lies below it.
func TestChaosConfigDelayDefaults(t *testing.T) {
	const us, ms = time.Microsecond, time.Millisecond
	for _, c := range []struct{ min, max, wantMin, wantMax time.Duration }{
		{0, 0, 500 * us, 3 * ms},
		{ms, 0, ms, 3 * ms},
		{ms, 2 * ms, ms, 2 * ms},
		{us, us, us, us},
		{5 * ms, 0, 5 * ms, 5 * ms},
		{5 * ms, 4 * ms, 5 * ms, 5 * ms},
	} {
		got := ChaosConfig{MinDelay: c.min, MaxDelay: c.max}.withDefaults()
		if got.MinDelay != c.wantMin || got.MaxDelay != c.wantMax {
			t.Errorf("MinDelay %v, MaxDelay %v: defaults to [%v, %v], want [%v, %v]",
				c.min, c.max, got.MinDelay, got.MaxDelay, c.wantMin, c.wantMax)
		}
	}
}

func TestChaosPartitionDropsAndHeals(t *testing.T) {
	ch := NewChaos(ChaosConfig{N: 3, Seed: 2, MinDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	defer ch.Close()
	next := &fakeLink{}
	link := ch.Pipe(next)

	ch.Isolate(0)
	link.Send(tme.Message{Kind: tme.Request, From: 0, To: 1}) // crosses the cut: dropped
	link.Send(tme.Message{Kind: tme.Request, From: 1, To: 2}) // inside majority: flows
	got := next.c.waitLen(t, 1, 5*time.Second)
	if got[0].From != 1 || got[0].To != 2 {
		t.Fatalf("released %+v, want the 1→2 message", got[0])
	}
	time.Sleep(20 * time.Millisecond)
	if len(next.c.snapshot()) != 1 {
		t.Fatalf("partitioned message leaked: %v", next.c.snapshot())
	}

	ch.Heal()
	link.Send(tme.Message{Kind: tme.Reply, From: 0, To: 1})
	got = next.c.waitLen(t, 2, 5*time.Second)
	if got[1].From != 0 || got[1].To != 1 {
		t.Fatalf("post-heal release = %+v", got[1])
	}
}

func TestChaosOneWayPartition(t *testing.T) {
	ch := NewChaos(ChaosConfig{N: 3, Seed: 4, MinDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	defer ch.Close()
	next := &fakeLink{}
	link := ch.Pipe(next)

	ch.IsolateOneWay(0)
	link.Send(tme.Message{Kind: tme.Request, From: 0, To: 1}) // outbound from sick node: dropped
	link.Send(tme.Message{Kind: tme.Request, From: 1, To: 0}) // inbound to sick node: flows
	link.Send(tme.Message{Kind: tme.Request, From: 1, To: 2}) // healthy edge: flows
	got := next.c.waitLen(t, 2, 5*time.Second)
	for _, m := range got {
		if m.From == 0 {
			t.Fatalf("message from the one-way-isolated node leaked: %+v", m)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if len(next.c.snapshot()) != 2 {
		t.Fatalf("unexpected releases: %v", next.c.snapshot())
	}

	// A symmetric Isolate replaces the one-way cut: inbound now drops too.
	ch.Isolate(0)
	link.Send(tme.Message{Kind: tme.Request, From: 1, To: 0})
	time.Sleep(20 * time.Millisecond)
	if len(next.c.snapshot()) != 2 {
		t.Fatalf("symmetric cut after one-way leaked a message: %v", next.c.snapshot())
	}

	ch.Heal()
	link.Send(tme.Message{Kind: tme.Reply, From: 0, To: 1})
	next.c.waitLen(t, 3, 5*time.Second)
}

// heldChaos returns a proxy whose delays are long enough that submitted
// messages stay queued for the duration of the test body.
func heldChaos(t *testing.T, n int) (*Chaos, *fakeLink, Link) {
	t.Helper()
	ch := NewChaos(ChaosConfig{N: n, Seed: 3, MinDelay: 30 * time.Second, MaxDelay: 30 * time.Second})
	t.Cleanup(func() { _ = ch.Close() })
	next := &fakeLink{}
	return ch, next, ch.Pipe(next)
}

func TestChaosSurfaceVerbs(t *testing.T) {
	ch, _, link := heldChaos(t, 2)
	ep := channel.Endpoint{Src: 0, Dst: 1}
	for i := 0; i < 3; i++ {
		link.Send(tme.Message{Kind: tme.Request, From: 0, To: 1})
	}
	if got := ch.QueueLen(ep); got != 3 {
		t.Fatalf("QueueLen = %d, want 3", got)
	}
	if !ch.FaultDrop(ep, 1) || ch.QueueLen(ep) != 2 {
		t.Fatalf("FaultDrop failed (len %d)", ch.QueueLen(ep))
	}
	if !ch.FaultDuplicate(ep, 0, 1) || ch.QueueLen(ep) != 3 {
		t.Fatalf("FaultDuplicate failed (len %d)", ch.QueueLen(ep))
	}
	rng := seeded.New(7)
	if !ch.FaultCorrupt(ep, 0, rng) {
		t.Fatal("FaultCorrupt failed")
	}
	if !ch.FaultFlush(ep) || ch.QueueLen(ep) != 0 {
		t.Fatalf("FaultFlush failed (len %d)", ch.QueueLen(ep))
	}
	// Stale or invalid coordinates must report false, never panic.
	if ch.FaultDrop(ep, 0) || ch.FaultDuplicate(ep, 5, 1) || ch.FaultFlush(ep) {
		t.Error("verb on empty queue reported applied")
	}
	bad := channel.Endpoint{Src: 0, Dst: 0}
	if ch.QueueLen(bad) != 0 || ch.FaultDrop(bad, 0) || ch.FaultCorrupt(bad, 0, rng) {
		t.Error("verb on invalid endpoint reported applied")
	}
}

func TestChaosPerturbHook(t *testing.T) {
	ch, _, _ := heldChaos(t, 2)
	rng := seeded.New(1)
	if ch.FaultPerturb(0, rng) {
		t.Error("FaultPerturb without hook reported applied")
	}
	var hit int
	ch.SetPerturb(func(id int, _ *rand.Rand) bool { hit = id; return true })
	if !ch.FaultPerturb(1, rng) || hit != 1 {
		t.Errorf("FaultPerturb hook: applied with id %d", hit)
	}
}

// The injector's Burst drives the live proxy through the same Surface it
// uses against the simulators.
func TestInjectorBurstOnChaos(t *testing.T) {
	ch, _, link := heldChaos(t, 3)
	for s := 0; s < 3; s++ {
		for d := 0; d < 3; d++ {
			if s != d {
				link.Send(tme.Message{Kind: tme.Request, From: s, To: d})
			}
		}
	}
	in := fault.NewInjector(11, fault.Mix{Loss: 1, Dup: 1, Corrupt: 1, Flush: 1})
	in.Burst(ch, 10)
	if in.Count() != 10 {
		t.Fatalf("injector applied %d faults, want 10", in.Count())
	}
}

func TestChaosChannelsDeterministicOrder(t *testing.T) {
	ch, _, _ := heldChaos(t, 3)
	eps := ch.Channels()
	if len(eps) != 6 {
		t.Fatalf("Channels = %d endpoints, want 6", len(eps))
	}
	want := []channel.Endpoint{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 0}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 2, Dst: 1}}
	for i, ep := range eps {
		if ep != want[i] {
			t.Fatalf("Channels[%d] = %+v, want %+v", i, ep, want[i])
		}
	}
}

// Per-shard delay streams: shard 0 keeps the historical seed (unsharded
// draw sequences replay exactly), other shards get distinct deterministic
// seeds, and a sharded proxy still releases FIFO per edge with every
// shard's traffic intact.
func TestChaosShardStreams(t *testing.T) {
	if got := chaosShardSeed(7, 0); got != 7 {
		t.Fatalf("shard 0 seed = %d, want the base seed unchanged", got)
	}
	seen := map[int64]bool{}
	for s := 0; s < 8; s++ {
		seed := chaosShardSeed(7, s)
		if seen[seed] {
			t.Fatalf("shard %d collides with an earlier shard's seed", s)
		}
		seen[seed] = true
		if seed != chaosShardSeed(7, s) {
			t.Fatalf("shard %d seed not deterministic", s)
		}
	}

	ch := NewChaos(ChaosConfig{
		N: 2, Shards: 4, Seed: 7,
		MinDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
	})
	defer ch.Close()
	next := &fakeLink{}
	link := ch.Pipe(next)
	const n = 24
	for i := 0; i < n; i++ {
		link.Send(tme.Message{
			Kind: tme.Request, TS: ltime.Timestamp{Clock: uint64(i)},
			From: 0, To: 1, Resource: i % 4,
		})
	}
	got := next.c.waitLen(t, n, 5*time.Second)
	for i, m := range got {
		if m.TS.Clock != uint64(i) {
			t.Fatalf("release %d = %+v (per-edge FIFO broken by sharding)", i, m)
		}
		if m.Resource != i%4 {
			t.Fatalf("release %d lost its shard id: %+v", i, m)
		}
	}
}

// chanLink hands each released message to a channel.
type chanLink struct{ out chan tme.Message }

func (l *chanLink) Start(func(dst int, m tme.Message)) {}
func (l *chanLink) Send(m tme.Message)                 { l.out <- m }
func (l *chanLink) Close() error                       { return nil }

// TestChaosSteadyCycleAllocatesNothing: once an edge's queue and the
// scheduler's release buffer have grown, a message held and released
// through the proxy allocates nothing, the scheduler's pass included.
func TestChaosSteadyCycleAllocatesNothing(t *testing.T) {
	ch := NewChaos(ChaosConfig{N: 3, Seed: 1, MinDelay: time.Microsecond, MaxDelay: time.Microsecond})
	defer ch.Close()
	sink := &chanLink{out: make(chan tme.Message, 1)}
	link := ch.Pipe(sink)
	m := tme.Message{Kind: tme.Request, From: 0, To: 1}
	cycle := func() {
		link.Send(m)
		<-sink.out
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(200, cycle); a != 0 {
		t.Errorf("a submit→release cycle allocates %.2f, want 0", a)
	}
}
