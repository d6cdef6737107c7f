package sim

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/workload"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// testShardClient is a deterministic draw stream: fixed think/hold gaps
// and a cycled resource-draw sequence.
type testShardClient struct {
	think, hold int64
	seq         []int
	i           int
	open        bool
}

func (c *testShardClient) NextThink() int64 { return c.think }
func (c *testShardClient) NextHold() int64  { return c.hold }
func (c *testShardClient) Open() bool       { return c.open }
func (c *testShardClient) Cohort() string   { return "test" }
func (c *testShardClient) NextResource(n int) int {
	r := c.seq[c.i%len(c.seq)] % n
	c.i++
	return r
}

func shardedCfg(seed int64) ShardedConfig {
	return ShardedConfig{
		Shards:   3,
		N:        4,
		Clients:  8,
		Seed:     seed,
		NewNode:  raFactory,
		MaxLoops: 5,
		NewWrapper: func(shard, id int) wrapper.Level2 {
			return wrapper.NewTimed(200)
		},
		NewClient: func(c int) workload.Client {
			return &testShardClient{think: 10, hold: 3, seq: []int{c, c + 1, c + 2}}
		},
		Obs:         obs.New(obs.Options{}),
		NewShardObs: func(int) *obs.Obs { return obs.New(obs.Options{}) },
	}
}

func TestShardedCompletesAllLoops(t *testing.T) {
	sh := NewSharded(shardedCfg(1))
	sh.Run(100000)
	if sh.LoopsDone() != 8 {
		t.Fatalf("clients done = %d, want 8 (%s)", sh.LoopsDone(), sh)
	}
	total := 0
	for s := 0; s < sh.cfg.Shards; s++ {
		total += len(sh.Shard(s).Metrics().Entries)
	}
	if total != 8*5 {
		t.Fatalf("total entries across shards = %d, want 40", total)
	}
}

func TestShardedIsDeterministic(t *testing.T) {
	run := func() ([][]Entry, int) {
		sh := NewSharded(shardedCfg(42))
		sh.Run(100000)
		entries := make([][]Entry, sh.cfg.Shards)
		for s := range entries {
			entries[s] = sh.Shard(s).Metrics().Entries
		}
		return entries, sh.Loops()
	}
	e1, l1 := run()
	e2, l2 := run()
	for s := range e1 {
		if len(e1[s]) != len(e2[s]) {
			t.Fatalf("shard %d: %d vs %d entries across runs", s, len(e1[s]), len(e2[s]))
		}
		for i := range e1[s] {
			if e1[s][i] != e2[s][i] {
				t.Fatalf("shard %d entry %d differs: %+v vs %+v", s, i, e1[s][i], e2[s][i])
			}
		}
	}
	if l1 != l2 {
		t.Fatalf("loops differ: %d vs %d", l1, l2)
	}
}

func TestShardedResourceDrawsTargetShards(t *testing.T) {
	cfg := shardedCfg(7)
	// Every client draws shard 2 only: all traffic must land there.
	cfg.NewClient = func(c int) workload.Client {
		return &testShardClient{think: 10, hold: 3, seq: []int{2}}
	}
	sh := NewSharded(cfg)
	sh.Run(100000)
	if n := len(sh.Shard(2).Metrics().Entries); n != 8*5 {
		t.Fatalf("shard 2 entries = %d, want 40", n)
	}
	for _, s := range []int{0, 1} {
		if n := len(sh.Shard(s).Metrics().Entries); n != 0 {
			t.Fatalf("shard %d entries = %d, want 0", s, n)
		}
	}
}

func TestShardedCrossShardAcquisitions(t *testing.T) {
	cfg := shardedCfg(9)
	cfg.CrossEvery = 2 // every second loop locks two skew-drawn shards
	sh := NewSharded(cfg)
	sh.Run(200000)
	if sh.LoopsDone() != 8 {
		t.Fatalf("clients done = %d, want 8 (%s)", sh.LoopsDone(), sh)
	}
	if got := sh.Monitor().InFlight(); got != 0 {
		t.Fatalf("hme in-flight at quiescence = %d, want 0", got)
	}
	snap := cfg.Obs.Registry().Snapshot()
	if snap.Counter("hme_acquisitions_total") == 0 {
		t.Fatal("no cross-shard acquisitions recorded")
	}
	if v := snap.Counter("hme_order_violations_total"); v != 0 {
		t.Fatalf("hme order violations = %d, want 0", v)
	}
	if v := snap.Counter("hme_audit_violations_total"); v != 0 {
		t.Fatalf("hme audit violations = %d, want 0", v)
	}
	if snap.Counter("hme_releases_total") != snap.Counter("hme_acquisitions_total") {
		t.Fatalf("releases %d != acquisitions %d",
			snap.Counter("hme_releases_total"), snap.Counter("hme_acquisitions_total"))
	}
}

func TestShardedSingleShardDegenerates(t *testing.T) {
	cfg := shardedCfg(3)
	cfg.Shards = 1
	sh := NewSharded(cfg)
	sh.Run(100000)
	if sh.LoopsDone() != 8 {
		t.Fatalf("clients done = %d, want 8 (%s)", sh.LoopsDone(), sh)
	}
	if n := len(sh.Shard(0).Metrics().Entries); n != 8*5 {
		t.Fatalf("entries = %d, want 40", n)
	}
}

// An open-loop client keeps its arrival clock on the sharded simulator as
// on every other substrate: arrivals come every gap ticks whatever the
// service does. With a gap longer than the hold, each request goes in at
// its arrival (the window it falls in admits it at its own time); with a
// gap shorter than the hold, arrivals back up, and each is served as soon
// as the client frees up: within one window of its release, not a gap
// after it as a closed loop would.
func TestShardedOpenLoopKeepsItsArrivalClock(t *testing.T) {
	for _, tc := range []struct {
		name      string
		gap, hold int64
	}{
		{"gap longer than the hold", 200, 30},
		{"gap shorter than the hold", 100, 150},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const loops = 8
			cfg := shardedCfg(1)
			cfg.Shards, cfg.N, cfg.Clients, cfg.MaxLoops = 1, 1, 1, loops
			cfg.NewClient = func(int) workload.Client {
				return &testShardClient{think: tc.gap, hold: tc.hold, seq: []int{0}, open: true}
			}
			sh := NewSharded(cfg)
			sh.Run(100000)
			entries := sh.Shard(0).Metrics().Entries
			if len(entries) != loops || sh.LoopsDone() != 1 {
				t.Fatalf("%d entries, %d clients done; want %d and 1", len(entries), sh.LoopsDone(), loops)
			}
			for k, e := range entries {
				arrival := int64(k+1) * tc.gap
				switch {
				case tc.gap > tc.hold && e.Time != arrival:
					t.Errorf("entry %d at %d, want its arrival %d", k, e.Time, arrival)
				case tc.gap < tc.hold && k > 0 && (e.Time < arrival || e.Time-(entries[k-1].Time+tc.hold) > window):
					t.Errorf("entry %d at %d: arrival %d, previous release %d; want it served within %d ticks of that release",
						k, e.Time, arrival, entries[k-1].Time+tc.hold, window)
				}
			}
		})
	}
}
