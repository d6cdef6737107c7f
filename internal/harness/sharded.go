// Sharded-simulator harness: RunSharded drives sim.Sharded — S per-shard
// RA/Lamport instances under their own W' wrappers, advanced in lockstep
// windows between merge barriers — and reads every measurement back from the
// coordinator and per-shard obs snapshots. ShardScale is experiment E17.
package harness

import (
	"fmt"

	"github.com/graybox-stabilization/graybox/internal/fault"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/sim"
	"github.com/graybox-stabilization/graybox/internal/workload"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// ShardedRunConfig describes one sharded simulator run.
type ShardedRunConfig struct {
	// Algo and N pick the per-shard protocol and process count.
	Algo Algo
	N    int
	// Shards is the number of independent critical sections (default 1).
	Shards int
	// Clients is the number of logical client loops (default N), each
	// drawing its target shard from the workload's skew stream.
	Clients int
	// Seed drives all workload and delay draws; FaultSeed the injectors.
	Seed, FaultSeed int64
	// Delta is the per-shard W' timeout δ (0 = eager W, NoWrapper = none).
	Delta int64
	// CrossEvery makes every k-th loop of each client a two-shard
	// hierarchical acquisition (0 = never).
	CrossEvery int
	// MaxLoops caps completed loops per client (0 = run to the horizon).
	MaxLoops int
	// Horizon is the virtual-time end of the run.
	Horizon int64
	// FaultTimes and FaultsPerBurst schedule one injector per shard (each
	// seeded from FaultSeed and its shard id); Mix weights the classes.
	FaultTimes     []int64
	FaultsPerBurst int
	Mix            fault.Mix
	// Workload shapes the traffic; nil uses workload.DefaultSpec with a
	// Zipf skew over the shards (s = 1.2) so low shards run hot.
	Workload *workload.Spec
}

func (c ShardedRunConfig) withDefaults() ShardedRunConfig {
	if c.Algo == 0 {
		c.Algo = RA
	}
	if c.N == 0 {
		c.N = 4
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Clients <= 0 {
		c.Clients = c.N
	}
	if c.Horizon == 0 {
		c.Horizon = 100000
	}
	if c.FaultsPerBurst == 0 {
		c.FaultsPerBurst = 10
	}
	if c.Mix.Loss+c.Mix.Dup+c.Mix.Corrupt+c.Mix.State+c.Mix.Flush == 0 {
		c.Mix = fault.DefaultMix
	}
	return c
}

// ShardedRunResult summarizes one sharded run.
type ShardedRunResult struct {
	// Entries counts CS entries across every shard; EntriesByShard breaks
	// them down (length Shards).
	Entries        int
	EntriesByShard []int
	// ClientsDone counts clients that finished their loop budget; Loops the
	// completed loops across all clients.
	ClientsDone, Loops int
	// Events is the total engine events processed across shard cores.
	Events int64
	// FaultsApplied sums the per-shard injectors.
	FaultsApplied int
	// CrossAcquisitions / OrderViolations / AuditViolations / InFlight are
	// the hme monitor's deadlock-freedom evidence: every multi-shard lock
	// set acquired in canonical order and fully released.
	CrossAcquisitions, OrderViolations, AuditViolations int64
	InFlight                                            int
	// ShardsConverged counts shards with progress after their last fault
	// (all of them, for a converging run; equals Shards when fault-free).
	ShardsConverged int
	// Obs is the coordinator snapshot (hme instruments, cross-shard
	// fairness); ShardObs holds each shard's snapshot (per-shard fairness
	// percentiles, convergence, message counters).
	Obs      *obs.Snapshot
	ShardObs []*obs.Snapshot
}

// RunSharded executes one sharded run and returns its measurements.
func RunSharded(cfg ShardedRunConfig) ShardedRunResult {
	cfg = cfg.withDefaults()
	spec := cfg.Workload
	if spec == nil {
		d := workload.DefaultSpec()
		for i := range d.Cohorts {
			d.Cohorts[i].Skew = workload.Skew{Resources: cfg.Shards, S: 1.2}
		}
		spec = &d
	}
	// Seed+100 is the harness-wide workload seed convention (see RunLive),
	// so a sim and a live run share draw streams for equal seeds.
	src := workload.NewGen(*spec, cfg.Seed+100, cfg.Clients)

	coord := obs.New(obs.Options{})
	scfg := sim.ShardedConfig{
		Shards:     cfg.Shards,
		N:          cfg.N,
		Clients:    cfg.Clients,
		Seed:       cfg.Seed,
		NewNode:    cfg.Algo.Factory(),
		Level1:     wrapper.PhaseGuard{},
		MaxLoops:   cfg.MaxLoops,
		CrossEvery: cfg.CrossEvery,
		NewClient:  src.Client,
		Obs:        coord,
	}
	if cfg.Delta >= 0 {
		delta := cfg.Delta
		scfg.NewWrapper = func(shard, id int) wrapper.Level2 { return wrapper.NewTimed(delta) }
	}
	sh := sim.NewSharded(scfg)

	injectors := make([]*fault.Injector, 0, cfg.Shards)
	if len(cfg.FaultTimes) > 0 && cfg.FaultsPerBurst > 0 {
		for s := 0; s < cfg.Shards; s++ {
			in := fault.NewInjector(cfg.FaultSeed+int64(s)*7919, cfg.Mix)
			in.Schedule(sh.Shard(s), cfg.FaultTimes, cfg.FaultsPerBurst)
			injectors = append(injectors, in)
		}
	}

	sh.Run(cfg.Horizon)

	res := ShardedRunResult{
		EntriesByShard: make([]int, cfg.Shards),
		ClientsDone:    sh.LoopsDone(),
		Loops:          sh.Loops(),
		Events:         sh.Events(),
		InFlight:       sh.Monitor().InFlight(),
		Obs:            coord.Registry().Snapshot(),
		ShardObs:       make([]*obs.Snapshot, cfg.Shards),
	}
	for _, in := range injectors {
		res.FaultsApplied += in.Count()
	}
	for s := 0; s < cfg.Shards; s++ {
		shardObs := sh.Shard(s).Obs()
		snap := shardObs.Registry().Snapshot()
		res.ShardObs[s] = snap
		res.EntriesByShard[s] = int(snap.Counter("sim_cs_entries_total"))
		res.Entries += res.EntriesByShard[s]
		conv := shardObs.Convergence()
		if conv.LastFault() < 0 || conv.ProgressAfterFault() > 0 {
			res.ShardsConverged++
		}
	}
	res.CrossAcquisitions = res.Obs.Counter("hme_acquisitions_total")
	res.OrderViolations = res.Obs.Counter("hme_order_violations_total")
	res.AuditViolations = res.Obs.Counter("hme_audit_violations_total")
	return res
}

// ShardScale is experiment E17: the hierarchical sharded system at scale —
// Full runs 100 processes × 8 shards × 640 client loops to 10k+ completed
// loops with per-shard fault bursts and every 5th loop a two-shard
// hierarchical acquisition. Each wrapped shard must converge under its own
// W' (progress after its last fault), the hme monitor must show zero order
// and audit violations with nothing left in flight (the ordered-resource
// deadlock-freedom argument, observed), and each shard's obs carries its
// own fairness percentiles. ok is that claim: every client finished its
// loop budget, every shard converged, the monitor saw at least one
// cross-shard acquisition and no order or audit violation, and nothing is
// in flight.
func ShardScale(scale Scale) (*Table, bool) {
	shards, n, clients, loops := 4, 16, 64, 5
	horizon, delta := int64(200000), int64(200)
	if scale == Full {
		// 640 clients on 100 nodes over 8 Zipf-hot shards queue legitimately
		// for thousands of ticks; δ must sit above that wait or W' floods the
		// system with resends for stalls that are really just contention.
		shards, n, clients, loops = 8, 100, 640, 16
		horizon, delta = 4000000, 20000
	}
	cfg := ShardedRunConfig{
		Algo: RA, N: n, Shards: shards, Clients: clients,
		Seed: 17, FaultSeed: 23,
		Delta:          delta,
		CrossEvery:     5,
		MaxLoops:       loops,
		Horizon:        horizon,
		FaultTimes:     []int64{500, 1500},
		FaultsPerBurst: 4,
	}
	res := RunSharded(cfg)

	t := &Table{
		Title: fmt.Sprintf("E17: sharded hierarchy, s=%d, n=%d, %d clients × %d loops, W' δ=%d, per-shard faults",
			shards, n, clients, loops, cfg.Delta),
		Header: []string{"shard", "entries", "p50", "p95", "p99", "converged"},
	}
	for s := 0; s < shards; s++ {
		snap := res.ShardObs[s]
		conv := "yes"
		if snap.Gauge("conv_progress_after_fault", 0) == 0 && snap.Gauge("conv_last_fault_time", -1) >= 0 {
			conv = "NO"
		}
		t.AddRow(fmt.Sprint(s),
			fmt.Sprint(res.EntriesByShard[s]),
			fmt.Sprint(snap.Gauge("fair_latency_p50", -1)),
			fmt.Sprint(snap.Gauge("fair_latency_p95", -1)),
			fmt.Sprint(snap.Gauge("fair_latency_p99", -1)),
			conv,
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d/%d clients completed their loop budget (%d loops, %d entries, %d engine events, %d faults)",
			res.ClientsDone, clients, res.Loops, res.Entries, res.Events, res.FaultsApplied),
		fmt.Sprintf("hme: %d cross-shard acquisitions, %d order violations, %d audit violations, %d in flight at the horizon",
			res.CrossAcquisitions, res.OrderViolations, res.AuditViolations, res.InFlight),
		fmt.Sprintf("%d/%d shards converged under their own W'; latencies are per-shard fairness percentiles (ticks)",
			res.ShardsConverged, shards),
		"expected: all clients done, all shards converged, zero hme violations, zero in flight",
	)
	ok := res.ClientsDone == clients && res.ShardsConverged == shards && res.CrossAcquisitions > 0 &&
		res.OrderViolations == 0 && res.AuditViolations == 0 && res.InFlight == 0
	t.Notes = append(t.Notes, fmt.Sprintf("verdict: ok=%v (every client finished its loop budget, every shard converged, at least one cross-shard acquisition, 0 order violations, 0 audit violations, 0 in flight)", ok))
	return t, ok
}
