package runtime

import (
	"os"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/graybox-stabilization/graybox/internal/lamport"
	"github.com/graybox-stabilization/graybox/internal/ra"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

func TestMailboxFIFO(t *testing.T) {
	m := newMailbox[int]()
	for i := 0; i < 100; i++ {
		m.put(i)
	}
	if m.len() != 100 {
		t.Fatalf("len = %d", m.len())
	}
	for i := 0; i < 100; i++ {
		v, ok := m.tryGet()
		if !ok || v != i {
			t.Fatalf("tryGet #%d = (%d,%v)", i, v, ok)
		}
	}
	if _, ok := m.tryGet(); ok {
		t.Error("tryGet on empty mailbox succeeded")
	}
}

func TestMailboxSignal(t *testing.T) {
	m := newMailbox[int]()
	select {
	case <-m.ready():
		t.Fatal("ready before put")
	default:
	}
	m.put(1)
	select {
	case <-m.ready():
	case <-time.After(time.Second):
		t.Fatal("no readiness signal after put")
	}
}

func TestMailboxClose(t *testing.T) {
	m := newMailbox[int]()
	m.put(1)
	m.close()
	if _, ok := m.tryGet(); ok {
		t.Error("items survive close")
	}
	m.put(2)
	if m.len() != 0 {
		t.Error("put after close enqueued")
	}
}

func TestNewClusterValidates(t *testing.T) {
	if _, err := NewCluster(Config{N: 0}); err == nil {
		t.Error("invalid config accepted")
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
	c, err := NewCluster(Config{
		N:       3,
		Seed:    1,
		NewNode: func(id, n int) tme.Node { return ra.New(id, n) },
	})
	if err != nil {
		t.Fatal(err)
	}
	log := collectEntries(c)
	c.Start()
	defer c.Stop()
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
	c, err := NewCluster(Config{
		N:       n,
		Seed:    2,
		NewNode: func(id, nn int) tme.Node { return lamport.New(id, nn) },
	})
	if err != nil {
		t.Fatal(err)
	}
	entryCh := make(chan Entry, 64)
	c.OnEntry(func(e Entry) { entryCh <- e })
	c.Start()
	defer c.Stop()

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

// The wrapper recovers a real concurrent cluster from heavy message loss —
// Theorem 8 on goroutines instead of virtual time.
func TestClusterWrapperRecoversFromLoss(t *testing.T) {
	c, err := NewCluster(Config{
		N:        3,
		Seed:     3,
		NewNode:  func(id, n int) tme.Node { return ra.New(id, n) },
		LossRate: 0.4,
		NewWrapper: func(int) wrapper.Level2 {
			return wrapper.Func(wrapper.W) // eager: every millisecond of hunger
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	log := collectEntries(c)
	c.Start()
	defer c.Stop()
	for i := 0; i < 3; i++ {
		c.RequestShard(0, i)
	}
	// All three must eventually eat despite 40% loss.
	served := map[int]bool{}
	deadline := time.Now().Add(20 * time.Second)
	for len(served) < 3 && time.Now().Before(deadline) {
		for _, e := range log.all() {
			if !served[e.ID] {
				served[e.ID] = true
				c.ReleaseShard(0, e.ID)
			}
		}
		time.Sleep(time.Millisecond)
	}
	if len(served) != 3 {
		t.Fatalf("served %v, want all of 0..2 (starvation under loss)", served)
	}
}

func TestClusterDuplicationTolerated(t *testing.T) {
	c, err := NewCluster(Config{
		N:       2,
		Seed:    4,
		NewNode: func(id, n int) tme.Node { return ra.New(id, n) },
		DupRate: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	for round := 0; round < 5; round++ {
		c.RequestShard(0, 0)
		if !waitFor(t, 5*time.Second, func() bool { return c.PhaseShard(0, 0) == tme.Eating }) {
			t.Fatalf("round %d: node 0 never entered", round)
		}
		c.ReleaseShard(0, 0)
		if !waitFor(t, 5*time.Second, func() bool { return c.PhaseShard(0, 0) == tme.Thinking }) {
			t.Fatalf("round %d: node 0 never released", round)
		}
	}
}

func TestClusterCorruptAndSnapshot(t *testing.T) {
	c, err := NewCluster(Config{
		N:       2,
		Seed:    5,
		NewNode: func(id, n int) tme.Node { return ra.New(id, n) },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
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
	c, err := NewCluster(Config{
		N:       3,
		Seed:    6,
		NewNode: func(id, n int) tme.Node { return ra.New(id, n) },
		NewWrapper: func(int) wrapper.Level2 {
			return wrapper.NewTimed(0)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
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
	// Nothing outlives Stop: event loops, forwarders, and the wall-clock
	// timers of W' deadlines and edge delays with their descriptors.
	if !waitFor(t, 5*time.Second, func() bool { return goruntime.NumGoroutine() <= goroutines }) {
		t.Errorf("goroutines: %d before, %d after Stop", goroutines, goruntime.NumGoroutine())
	}
	if after := openFDs(); after > fds {
		t.Errorf("descriptors: %d before, %d after Stop", fds, after)
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
	c, err := NewCluster(Config{
		N:       2,
		Seed:    8,
		NewNode: func(id, n int) tme.Node { return ra.New(id, n) },
		Level1:  wrapper.PhaseGuard{},
		NewWrapper: func(int) wrapper.Level2 {
			return wrapper.Func(wrapper.W)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
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

// Soak: a lossy, duplicating cluster with wrapper and level-1 guard under
// repeated corruption keeps serving requests. Guarded by -short.
func TestClusterSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const n = 4
	c, err := NewCluster(Config{
		N:        n,
		Seed:     99,
		NewNode:  func(id, nn int) tme.Node { return ra.New(id, nn) },
		LossRate: 0.2,
		DupRate:  0.1,
		Level1:   wrapper.PhaseGuard{},
		NewWrapper: func(int) wrapper.Level2 {
			return wrapper.Func(wrapper.W)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	log := collectEntries(c)
	c.Start()
	defer c.Stop()

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

func TestEdgeIndexCoversAllPairs(t *testing.T) {
	c, err := NewCluster(Config{
		N:       5,
		Seed:    7,
		NewNode: func(id, n int) tme.Node { return ra.New(id, n) },
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := c.transport.(*chanTransport)
	if !ok {
		t.Fatalf("default transport is %T, want *chanTransport", c.transport)
	}
	seen := map[int]bool{}
	for s := 0; s < 5; s++ {
		for d := 0; d < 5; d++ {
			if s == d {
				continue
			}
			idx := tr.edgeIndex(s, d)
			if idx < 0 || idx >= len(tr.edges) {
				t.Fatalf("edgeIndex(%d,%d) = %d out of range", s, d, idx)
			}
			e := tr.edges[idx]
			if e.src != s || e.dst != d {
				t.Fatalf("edgeIndex(%d,%d) → edge (%d,%d)", s, d, e.src, e.dst)
			}
			if seen[idx] {
				t.Fatalf("edgeIndex collision at %d", idx)
			}
			seen[idx] = true
		}
	}
}

// TestOnEntryInstallDuringRun is the regression test for the unlocked
// onEntry write: OnEntry used to assign the field without taking c.mu,
// racing with recordEntry's read from the event-loop goroutines. The
// assertion is the race detector's — installing callbacks while entries
// are being recorded must be clean under -race.
func TestOnEntryInstallDuringRun(t *testing.T) {
	c, err := NewCluster(Config{
		N:       2,
		Seed:    11,
		NewNode: func(id, n int) tme.Node { return ra.New(id, n) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Whichever callback is installed at the time counts the entry.
	var entries atomic.Int64
	count := func(Entry) { entries.Add(1) }
	c.OnEntry(count)
	c.Start()
	defer c.Stop()
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
	c, err := NewCluster(Config{
		N:       3,
		Shards:  2,
		Seed:    12,
		NewNode: func(id, n int) tme.Node { return ra.New(id, n) },
	})
	if err != nil {
		t.Fatal(err)
	}
	log := collectEntries(c)
	c.Start()
	defer c.Stop()

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
