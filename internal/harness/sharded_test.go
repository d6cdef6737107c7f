package harness

import (
	"bytes"
	"strings"
	"testing"

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

// Same seed ⇒ identical metrics JSON, coordinator and every shard — the
// merge-barrier design's determinism claim, measured end to end.
func TestRunShardedDeterministicMetricsJSON(t *testing.T) {
	a := RunSharded(shardedTestCfg()).MetricsJSON()
	b := RunSharded(shardedTestCfg()).MetricsJSON()
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
	if !bytes.Equal(a.MetricsJSON(), b.MetricsJSON()) {
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
