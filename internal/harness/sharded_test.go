package harness

import (
	"bytes"
	"fmt"
	goruntime "runtime"
	"strings"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/workload"
)

func shardedTestCfg() ShardedRunConfig {
	return ShardedRunConfig{
		Algo: RA, N: 6, Shards: 4, Clients: 12,
		Seed: 5, FaultSeed: 11,
		Delta:      200,
		CrossEvery: 3,
		MaxLoops:   4,
		Horizon:    200000,
	}
}

// TestShardedRunAllocationsPerEntry is a tier-1 tripwire for the
// benchmark's sim-sharded allocs_per_entry, which CI does not gate: one
// reduced sharded run (N=20, 4 shards, 80 clients × 32 loops, every fifth
// loop a two-shard acquisition, four faults per shard at 500 and at 1500)
// may make at most 0.6 heap allocations per CS entry, set-up included. It
// reads about 0.39: what is left is per node and per shard, built once.
// Overflow storage grown per channel, hme sets grown per client and a heap
// clock per node together take the same run to about 0.79. Not parallel: it
// reads the process-wide malloc count. About 0.03 s.
func TestShardedRunAllocationsPerEntry(t *testing.T) {
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	r := RunSharded(ShardedRunConfig{
		Algo: RA, N: 20, Shards: 4, Clients: 80,
		Seed: 1, FaultSeed: 7,
		Delta:      2000,
		CrossEvery: 5,
		MaxLoops:   32,
		Horizon:    1000000,
		FaultTimes: []int64{500, 1500}, FaultsPerBurst: 4,
	})
	goruntime.ReadMemStats(&after)
	if r.ClientsDone != 80 {
		t.Fatalf("%d of 80 clients finished", r.ClientsDone)
	}
	perEntry := float64(after.Mallocs-before.Mallocs) / float64(r.Entries)
	t.Logf("%.2f allocations per entry over %d entries", perEntry, r.Entries)
	if perEntry > 0.6 {
		t.Errorf("%.2f heap allocations per CS entry, want at most 0.6", perEntry)
	}
}

// Same seed ⇒ identical metrics JSON, coordinator and every shard — the
// merge-barrier design's determinism claim, measured end to end.
func TestRunShardedDeterministicMetricsJSON(t *testing.T) {
	a := RunSharded(shardedTestCfg()).metricsJSON()
	b := RunSharded(shardedTestCfg()).metricsJSON()
	if !bytes.Equal(a, b) {
		t.Fatalf("metrics JSON differs across identical runs:\n%s\n--- vs ---\n%s", a, b)
	}
}

// Faulted sharded runs stay deterministic too: the injectors live on the
// shard cores and draw from seeded streams.
func TestRunShardedDeterministicUnderFaults(t *testing.T) {
	cfg := shardedTestCfg()
	cfg.FaultTimes = []int64{300, 900}
	cfg.FaultsPerBurst = 3
	a := RunSharded(cfg)
	b := RunSharded(cfg)
	if !bytes.Equal(a.metricsJSON(), b.metricsJSON()) {
		t.Fatal("faulted sharded runs diverge across identical seeds")
	}
	if a.FaultsApplied == 0 {
		t.Fatal("no faults applied")
	}
}

// Shards = 1 is not a special case: one shard runs through the same
// coordinator as any other count, lock sets collapse onto the one shard,
// and every client finishes its loops under a fault burst.
func TestRunShardedSingleShard(t *testing.T) {
	cfg := shardedTestCfg()
	cfg.Shards = 1
	cfg.MaxLoops = 6
	cfg.FaultTimes = []int64{300}
	cfg.FaultsPerBurst = 3
	res := RunSharded(cfg)
	if want := cfg.Clients * cfg.MaxLoops; res.ClientsDone != cfg.Clients || res.Loops != want {
		t.Fatalf("clients done = %d/%d, loops = %d/%d", res.ClientsDone, cfg.Clients, res.Loops, want)
	}
	if len(res.EntriesByShard) != 1 || res.EntriesByShard[0] != res.Entries || res.ShardsConverged != 1 {
		t.Fatalf("per-shard view of one shard: entries %v of %d, converged %d",
			res.EntriesByShard, res.Entries, res.ShardsConverged)
	}
	if res.OrderViolations != 0 || res.AuditViolations != 0 || res.InFlight != 0 {
		t.Fatalf("hme: %d order violations, %d audit violations, %d in flight",
			res.OrderViolations, res.AuditViolations, res.InFlight)
	}
}

// A Zipf-skewed workload must show its heat in the per-shard entry counts:
// shard 0 is the hot shard and collects strictly more entries than the
// coolest shard.
func TestRunShardedSkewShowsInEntryCounts(t *testing.T) {
	cfg := shardedTestCfg()
	cfg.CrossEvery = 0
	cfg.Clients = 32
	cfg.MaxLoops = 6
	spec := workload.DefaultSpec()
	for i := range spec.Cohorts {
		spec.Cohorts[i].Skew = workload.Skew{Resources: cfg.Shards, S: 1.6}
	}
	cfg.Workload = &spec
	res := RunSharded(cfg)
	if res.ClientsDone != cfg.Clients {
		t.Fatalf("clients done = %d, want %d", res.ClientsDone, cfg.Clients)
	}
	hot := res.EntriesByShard[0]
	cold := res.EntriesByShard[0]
	for _, n := range res.EntriesByShard[1:] {
		if n > hot {
			hot = n
		}
		if n < cold {
			cold = n
		}
	}
	if res.EntriesByShard[0] != hot {
		t.Fatalf("shard 0 is not the hot shard: per-shard entries %v", res.EntriesByShard)
	}
	if hot <= cold {
		t.Fatalf("Zipf skew invisible in entry counts: %v", res.EntriesByShard)
	}
}

// E17 at Quick scale: every client completes, every shard converges, and
// the hme monitor certifies deadlock-freedom (no violations, no lock set
// left in flight).
func TestShardScaleQuick(t *testing.T) {
	tab := ShardScale(Quick)
	for _, row := range tab.Rows {
		if row[len(row)-1] != "yes" {
			t.Fatalf("shard %s did not converge:\n%s", row[0], tab)
		}
	}
	joined := strings.Join(tab.Notes, "\n")
	if !strings.Contains(joined, "0 order violations, 0 audit violations, 0 in flight") {
		t.Fatalf("hme deadlock-freedom evidence missing:\n%s", joined)
	}
	if strings.Contains(joined, "0 cross-shard acquisitions") {
		t.Fatalf("no cross-shard acquisitions exercised:\n%s", joined)
	}
}

// metricsJSON renders every snapshot of the run — coordinator first, then
// each shard — as one deterministic JSON document (byte-identical across
// runs with equal seeds; the cross-substrate determinism tests diff it).
func (r ShardedRunResult) metricsJSON() []byte {
	var buf bytes.Buffer
	app := func(label string, s *obs.Snapshot) {
		fmt.Fprintf(&buf, "-- %s --\n", label)
		if err := s.WriteJSON(&buf); err != nil {
			fmt.Fprintf(&buf, "error: %v\n", err)
		}
	}
	app("coordinator", r.Obs)
	for s, snap := range r.ShardObs {
		app(fmt.Sprintf("shard %d", s), snap)
	}
	return buf.Bytes()
}
