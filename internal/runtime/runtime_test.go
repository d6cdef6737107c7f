package runtime

import (
	"os"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/graybox-stabilization/graybox/internal/fault"
	"github.com/graybox-stabilization/graybox/internal/lamport"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/ra"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

func TestNewClusterValidates(t *testing.T) {
	if _, err := NewCluster(Config{N: 0}); err == nil {
		t.Error("invalid config accepted")
	}
	_, err := NewCluster(Config{N: 2, NewNode: func(id, n int) tme.Node { return ra.New(id, n) }})
	if err == nil || !strings.Contains(err.Error(), "wire.Transport whose Local lists every id") {
		t.Errorf("nil Transport: err = %v, want one naming the in-process composition", err)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// entryLog collects a cluster's entries through OnEntry; the cluster
// itself keeps only a counter.
type entryLog struct {
	mu      sync.Mutex
	entries []Entry
}

// collectEntries installs the log as c's entry callback. Call before Start.
func collectEntries(c *Cluster) *entryLog {
	l := &entryLog{}
	c.OnEntry(func(e Entry) {
		l.mu.Lock()
		l.entries = append(l.entries, e)
		l.mu.Unlock()
	})
	return l
}

func (l *entryLog) all() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Entry(nil), l.entries...)
}

func TestClusterSoloRound(t *testing.T) {
	c, _ := inProcess(t, Config{
		N:       3,
		NewNode: func(id, n int) tme.Node { return ra.New(id, n) },
	}, bareHold, bareHold)
	log := collectEntries(c)
	c.Start()
	c.RequestShard(0, 0)
	if !waitFor(t, 5*time.Second, func() bool { return len(log.all()) == 1 }) {
		t.Fatal("node 0 never entered")
	}
	if got := log.all(); got[0].ID != 0 || got[0].Seq != 0 || c.PhaseShard(0, 0) != tme.Eating {
		t.Fatalf("entries = %v, phase = %v", got, c.PhaseShard(0, 0))
	}
	c.ReleaseShard(0, 0)
	if !waitFor(t, 5*time.Second, func() bool { return c.PhaseShard(0, 0) == tme.Thinking }) {
		t.Fatal("node 0 never released")
	}
}

func TestClusterMutualExclusionUnderContention(t *testing.T) {
	const n = 4
	c, _ := inProcess(t, Config{
		N:       n,
		NewNode: func(id, nn int) tme.Node { return lamport.New(id, nn) },
	}, bareHold, bareHold)
	entryCh := make(chan Entry, 64)
	c.OnEntry(func(e Entry) { entryCh <- e })
	c.Start()

	const rounds = 3
	seen := 0
	for round := 0; round < rounds; round++ {
		for i := 0; i < n; i++ {
			c.RequestShard(0, i)
		}
		for i := 0; i < n; i++ {
			select {
			case e := <-entryCh:
				if e.Seq != seen {
					t.Fatalf("round %d: entry Seq = %d, want %d", round, e.Seq, seen)
				}
				seen++
				// Exactly one eater at a time: the entrant must be the
				// only eating process right now.
				eating := 0
				for j := 0; j < n; j++ {
					if c.PhaseShard(0, j) == tme.Eating {
						eating++
					}
				}
				if eating > 1 {
					t.Fatalf("round %d: %d simultaneous eaters", round, eating)
				}
				c.ReleaseShard(0, e.ID)
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: timed out waiting for entry %d", round, i)
			}
		}
	}
	select {
	case e := <-entryCh:
		t.Errorf("entry %+v beyond the %d requested", e, rounds*n)
	default:
	}
}

// The paper's §4 deadlock on goroutines: every process requests, and every
// REQ is lost in flight. Nothing in RA ME resends, so unwrapped no process
// enters, deterministically; W' (δ = 5 ms) resends the lost requests and
// all three are served — Theorem 8 on goroutines instead of virtual time.
func TestClusterWrapperRecoversFromLoss(t *testing.T) {
	const n = 3
	served := func(t *testing.T, newWrapper func(int) wrapper.Level2, window time.Duration) map[int]bool {
		hold := 20 * time.Millisecond
		c, chaos := inProcess(t, Config{
			N:          n,
			NewNode:    func(id, nn int) tme.Node { return ra.New(id, nn) },
			NewWrapper: newWrapper,
		}, hold, hold)
		log := collectEntries(c)
		c.Start()
		for i := 0; i < n; i++ {
			c.RequestShard(0, i)
		}
		held := 0
		for _, ep := range chaos.Channels() {
			held += chaos.QueueLen(ep)
		}
		if held != n*(n-1) {
			t.Fatalf("%d messages held before the drop, want the %d REQs", held, n*(n-1))
		}
		fault.DropAllInFlight(chaos)
		served := map[int]bool{}
		for deadline := time.Now().Add(window); len(served) < n && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			for _, e := range log.all() {
				if !served[e.ID] {
					served[e.ID] = true
					c.ReleaseShard(0, e.ID)
				}
			}
		}
		return served
	}
	t.Run("unwrapped", func(t *testing.T) {
		if got := served(t, nil, 300*time.Millisecond); len(got) != 0 {
			t.Fatalf("served %v in 300 ms with every REQ lost and no wrapper", got)
		}
	})
	t.Run("wrapped", func(t *testing.T) {
		delta := (5 * time.Millisecond).Nanoseconds()
		if got := served(t, func(int) wrapper.Level2 { return wrapper.NewTimed(delta) }, 10*time.Second); len(got) != n {
			t.Fatalf("served %v, want all of 0..%d (the deadlock outlived W')", got, n-1)
		}
	})
}

// Every round's REQ is duplicated while it is held, so process 1 answers
// twice and a stale REPLY reaches process 0 later; it still enters and
// releases every round. Once the proxy is empty it has released one
// message more than it was handed per round: the duplicates were carried.
func TestClusterDuplicationTolerated(t *testing.T) {
	const rounds = 5
	o := obs.New(obs.Options{})
	hold := 10 * time.Millisecond
	c, chaos := inProcess(t, Config{
		N:       2,
		NewNode: func(id, n int) tme.Node { return ra.New(id, n) },
		Obs:     o,
	}, hold, hold)
	c.Start()
	in := fault.NewInjector(4, fault.DefaultMix)
	for round := 0; round < rounds; round++ {
		c.RequestShard(0, 0)
		in.Apply(chaos, fault.MessageDup)
		if !waitFor(t, 5*time.Second, func() bool { return c.PhaseShard(0, 0) == tme.Eating }) {
			t.Fatalf("round %d: node 0 never entered", round)
		}
		c.ReleaseShard(0, 0)
		if !waitFor(t, 5*time.Second, func() bool { return c.PhaseShard(0, 0) == tme.Thinking }) {
			t.Fatalf("round %d: node 0 never released", round)
		}
	}
	quiet := waitFor(t, 5*time.Second, func() bool {
		for _, ep := range chaos.Channels() {
			if chaos.QueueLen(ep) > 0 {
				return false
			}
		}
		return true
	})
	if !quiet {
		t.Fatal("the proxy never emptied")
	}
	snap := o.Registry().Snapshot()
	if held, released := snap.Counter("chaos_msgs_held_total"), snap.Counter("chaos_msgs_released_total"); released-held != rounds {
		t.Errorf("released %d of %d messages handed in, want %d duplicates carried", released, held, rounds)
	}
}

func TestClusterCorruptAndSnapshot(t *testing.T) {
	c, _ := inProcess(t, Config{
		N:       2,
		NewNode: func(id, n int) tme.Node { return ra.New(id, n) },
	}, bareHold, bareHold)
	c.Start()
	c.CorruptShard(0, 0, tme.Corruption{Phase: tme.Hungry})
	snap := c.SnapshotShard(0, 0)
	if snap.Phase != tme.Hungry {
		t.Errorf("snapshot phase = %v, want hungry", snap.Phase)
	}
	if c.cfg.N != 2 {
		t.Errorf("N = %d", c.cfg.N)
	}
}

func TestStopIsIdempotentAndJoinsGoroutines(t *testing.T) {
	goroutines, fds := goruntime.NumGoroutine(), openFDs()
	c, chaos := inProcess(t, Config{
		N:       3,
		NewNode: func(id, n int) tme.Node { return ra.New(id, n) },
		NewWrapper: func(int) wrapper.Level2 {
			return wrapper.NewTimed(0)
		},
	}, bareHold, bareHold)
	c.Start()
	c.RequestShard(0, 0)
	time.Sleep(10 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		c.Stop()
		c.Stop() // second call must not panic or hang
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not join all goroutines")
	}
	_ = chaos.Close()
	// Nothing outlives Stop and the proxy's Close: the transport's accept
	// loop, the proxy's scheduler, and the wall-clock timers of W'
	// deadlines and of the scheduler with their relays and descriptors.
	if !waitFor(t, 5*time.Second, func() bool { return goruntime.NumGoroutine() <= goroutines }) {
		t.Errorf("goroutines: %d before, %d after Stop", goroutines, goruntime.NumGoroutine())
	}
	if after := openFDs(); after > fds {
		t.Errorf("descriptors: %d before, %d after Stop", fds, after)
	}
}

// countW is W' that counts its evaluations.
type countW struct {
	*wrapper.Timed
	fires *atomic.Int64
}

func (w countW) Fire(now int64, v tme.SpecView) []tme.Message {
	w.fires.Add(1)
	return w.Timed.Fire(now, v)
}

// TestStopEndsEveryStep: Stop, with messages in flight and the W'
// deadlines of hungry processes armed, returns, and no timer callback
// evaluates W' after it. No delivery arrives either, though the proxy is
// still open; one the proxy's scheduler began before the transport closed
// may still finish (wire.Link's Close ends only new calls), so deliveries
// are counted from a few milliseconds after Stop.
func TestStopEndsEveryStep(t *testing.T) {
	const n = 4
	o := obs.New(obs.Options{})
	var fires atomic.Int64
	c, _ := inProcess(t, Config{
		N:       n,
		NewNode: func(id, nn int) tme.Node { return ra.New(id, nn) },
		NewWrapper: func(int) wrapper.Level2 {
			return countW{Timed: wrapper.NewTimed((200 * time.Microsecond).Nanoseconds()), fires: &fires}
		},
		Obs: o,
	}, 200*time.Microsecond, time.Millisecond)
	c.Start()
	for i := 0; i < n; i++ {
		c.RequestShard(0, i) // nobody releases: all but one eater stay hungry
	}
	if !waitFor(t, 5*time.Second, func() bool { return fires.Load() >= 10 }) {
		t.Fatalf("W' evaluated %d times in 5s, want 10", fires.Load())
	}
	delivered := func() int64 { return o.Registry().Snapshot().Counter("runtime_msgs_delivered_total") }
	c.Stop()
	f := fires.Load()
	time.Sleep(5 * time.Millisecond)
	d := delivered()
	time.Sleep(20 * time.Millisecond)
	if got := fires.Load(); got != f {
		t.Errorf("W' evaluated %d times after Stop returned", got-f)
	}
	if got := delivered(); got != d {
		t.Errorf("%d deliveries after Stop returned", got-d)
	}
}

// openFDs counts the process's open descriptors; 0 where /proc/self/fd is
// not to be had, which turns the comparisons using it into no-ops.
func openFDs() int {
	ents, _ := os.ReadDir("/proc/self/fd")
	return len(ents)
}

// A level-1 wrapper repairs an invalid phase on the live cluster while the
// level-2 wrapper keeps inter-process state consistent.
func TestClusterLevel1Repair(t *testing.T) {
	c, _ := inProcess(t, Config{
		N:       2,
		NewNode: func(id, n int) tme.Node { return ra.New(id, n) },
		Level1:  wrapper.PhaseGuard{},
		NewWrapper: func(int) wrapper.Level2 {
			return wrapper.Func(wrapper.W)
		},
	}, bareHold, bareHold)
	c.Start()
	c.CorruptShard(0, 0, tme.Corruption{Phase: tme.Phase(9)})
	if !waitFor(t, 5*time.Second, func() bool { return c.PhaseShard(0, 0).Valid() }) {
		t.Fatal("PhaseGuard never repaired the phase")
	}
	// The repaired process can then be served normally.
	c.RequestShard(0, 0)
	if !waitFor(t, 5*time.Second, func() bool { return c.PhaseShard(0, 0) == tme.Eating }) {
		t.Fatal("repaired process never entered the CS")
	}
}

func TestNewTimedClampsNegativeDelta(t *testing.T) {
	w := wrapper.NewTimed(-7)
	if w.Delta != 0 {
		t.Errorf("Delta = %d, want 0", w.Delta)
	}
}

// Soak: a cluster with wrapper and level-1 guard keeps serving requests
// under a burst of the whole in-flight fault mix (loss, duplication,
// corruption, flush) on the proxy every round and periodic state
// corruption. Guarded by -short.
func TestClusterSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const n = 4
	c, chaos := inProcess(t, Config{
		N:       n,
		NewNode: func(id, nn int) tme.Node { return ra.New(id, nn) },
		Level1:  wrapper.PhaseGuard{},
		NewWrapper: func(int) wrapper.Level2 {
			return wrapper.Func(wrapper.W)
		},
	}, 500*time.Microsecond, 3*time.Millisecond)
	log := collectEntries(c)
	c.Start()
	in := fault.NewInjector(99, fault.DefaultMix)

	// Every logged entry is released exactly once. An entry can land
	// between a round's release and the next round's requests; counting
	// only what arrives after the requests would leave that eater holding
	// the critical section for good.
	served := 0
	deadline := time.Now().Add(20 * time.Second)
	round := 0
	for served < 12 && time.Now().Before(deadline) {
		round++
		for i := 0; i < n; i++ {
			c.RequestShard(0, i)
		}
		in.Burst(chaos, 3)
		if round%2 == 0 {
			// Periodic transient corruption.
			c.CorruptShard(0, round%n, tme.Corruption{Phase: tme.Thinking})
		}
		for time.Now().Before(deadline) {
			entries := log.all()
			if len(entries) > served {
				for _, e := range entries[served:] {
					c.ReleaseShard(0, e.ID)
					served++
				}
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	if served < 12 {
		t.Fatalf("only %d entries served under soak", served)
	}
}

// TestOnEntryInstallDuringRun is the regression test for the unlocked
// onEntry write: OnEntry used to assign the field without taking c.mu,
// racing with recordEntry's read from the goroutines that step processes. The
// assertion is the race detector's — installing callbacks while entries
// are being recorded must be clean under -race.
func TestOnEntryInstallDuringRun(t *testing.T) {
	c, _ := inProcess(t, Config{
		N:       2,
		NewNode: func(id, n int) tme.Node { return ra.New(id, n) },
	}, bareHold, bareHold)
	// Whichever callback is installed at the time counts the entry.
	var entries atomic.Int64
	count := func(Entry) { entries.Add(1) }
	c.OnEntry(count)
	c.Start()
	installed := make(chan struct{})
	go func() {
		defer close(installed)
		for i := 0; i < 100; i++ {
			c.OnEntry(count)
		}
	}()
	for round := 0; round < 5; round++ {
		c.RequestShard(0, 0)
		if !waitFor(t, 5*time.Second, func() bool { return c.PhaseShard(0, 0) == tme.Eating }) {
			t.Fatal("node 0 never entered")
		}
		c.ReleaseShard(0, 0)
		if !waitFor(t, 5*time.Second, func() bool { return c.PhaseShard(0, 0) == tme.Thinking }) {
			t.Fatal("node 0 never released")
		}
	}
	<-installed
	if got := entries.Load(); got != 5 {
		t.Fatalf("entries = %d, want 5", got)
	}
}

// Two shards are two independent protocol instances: the same process can
// eat on both simultaneously, entries carry the shard id, and legacy
// (unsharded) calls address shard 0.
func TestClusterShardsAreIndependent(t *testing.T) {
	c, _ := inProcess(t, Config{
		N:       3,
		Shards:  2,
		NewNode: func(id, n int) tme.Node { return ra.New(id, n) },
	}, bareHold, bareHold)
	log := collectEntries(c)
	c.Start()

	c.RequestShard(0, 0)
	c.RequestShard(1, 0)
	ok := waitFor(t, 5*time.Second, func() bool {
		return c.PhaseShard(0, 0) == tme.Eating && c.PhaseShard(1, 0) == tme.Eating
	})
	if !ok {
		t.Fatalf("node 0 phases = %v/%v, want Eating on both shards",
			c.PhaseShard(0, 0), c.PhaseShard(1, 0))
	}
	// Contention is per shard: node 1 can eat on shard 1 only after node 0
	// releases there, independent of shard 0's holder.
	c.RequestShard(1, 1)
	c.ReleaseShard(1, 0)
	if !waitFor(t, 5*time.Second, func() bool { return c.PhaseShard(1, 1) == tme.Eating }) {
		t.Fatal("node 1 never entered shard 1 after the release")
	}
	if got := c.PhaseShard(0, 0); got != tme.Eating {
		t.Fatalf("shard 0 holder disturbed: phase = %v", got)
	}
	c.ReleaseShard(0, 0) // legacy call addresses shard 0
	if !waitFor(t, 5*time.Second, func() bool { return c.PhaseShard(0, 0) == tme.Thinking }) {
		t.Fatal("node 0 never released shard 0 via the legacy call")
	}
	c.ReleaseShard(1, 1)

	byShard := map[int]int{}
	for _, e := range log.all() {
		byShard[e.Shard]++
	}
	if byShard[0] != 1 || byShard[1] != 2 {
		t.Fatalf("entries per shard = %v, want map[0:1 1:2]", byShard)
	}
}
