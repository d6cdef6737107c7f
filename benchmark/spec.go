package main

// MetricSpec is one named number the benchmark prints. The end-to-end
// table below and BENCHMARK.json must list the same metrics with the same
// units, directions and bounds; a test compares them.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Workload names. Every live workload is one process, closed loop, one
// client per node; every sim workload is fixed simulated work repeated.
const (
	LiveUncontended   = "live-uncontended"
	LiveSaturated     = "live-saturated"
	LivePartitionHeal = "live-partition-heal"
	SimStabilize      = "sim-stabilize"
	SimSharded        = "sim-sharded"
)

// Workloads lists the workloads in the order a full set runs them.
var Workloads = []string{LiveUncontended, LiveSaturated, LivePartitionHeal, SimStabilize, SimSharded}

// workloadWhy says in one line why each workload is in the benchmark; the
// README has the long form.
var workloadWhy = map[string]string{
	LiveUncontended:   "5-node TCP cluster, think 10-30 ms, proxy hold 1 us: nothing queues, so latency is one bare entry's blocking chain; entries/s is think-bound and is the control",
	LiveSaturated:     "same cluster, think 1 ms: every process always hungry, so entries/s is the hand-off rate; batching that helps here and costs first-message latency shows on live-uncontended",
	LivePartitionHeal: "same cluster, stated injected delay U[0.5,3] ms, a 100 ms two-node cut every 300 ms: the paper's recovery claim on real sockets; injected delay dominates, so code-path changes predict no change",
	SimStabilize:      "harness.Run over 100 seeds alternating RA and Lamport with fault bursts and monitors on: the researcher's E2/E16 loop on one engine core",
	SimSharded:        "harness.RunSharded at the E17 full size, 100 nodes, 8 shards, 640 clients: parallel cores under merge barriers plus hme, the other way the same engine code is used",
}

func isLive(workload string) bool {
	return workload == LiveUncontended || workload == LiveSaturated || workload == LivePartitionHeal
}

// EndToEnd are the metrics every workload reports untraced, with the
// share of the parent's median by which each may worsen before a change
// counts as a regression. All of them are defined on every workload (the
// README says what each means on the simulator), and none can be 0.
var EndToEnd = []MetricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "entries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "entry_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "entry_p95_us", Unit: "us", Better: "lower", Bound: 0.15},
	{Name: "msgs_per_entry", Unit: "count", Better: "lower", Bound: 0.04},
	{Name: "allocs_per_entry", Unit: "count", Better: "lower", Bound: 0.05},
}

// PerLayer are the metrics a traced run reports: single layers, named
// after the module, without bounds. Every traced run reports all of them.
// A layer the workload itself does not run is measured on a short probe at
// a fixed configuration; the README says which, metric by metric.
var PerLayer = []MetricSpec{
	{Name: "harness.entry_p99_us", Unit: "us", Better: "lower"},
	{Name: "harness.recovery_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.recovery_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.recovery_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.fair_entry_ratio_x1000", Unit: "count", Better: "lower"},
	{Name: "harness.unserved_requests", Unit: "count", Better: "lower"},
	{Name: "harness.handoff_us", Unit: "us", Better: "lower"},
	{Name: "harness.driver_gap_us", Unit: "us", Better: "lower"},
	{Name: "harness.schedule_lateness_p99_us", Unit: "us", Better: "lower"},

	{Name: "runtime.request_call_us", Unit: "us", Better: "lower"},
	{Name: "runtime.release_call_us", Unit: "us", Better: "lower"},
	{Name: "runtime.phase_call_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.reply_turnaround_us", Unit: "us", Better: "lower"},
	{Name: "runtime.deliver_to_entry_us", Unit: "us", Better: "lower"},
	{Name: "runtime.level1_repairs", Unit: "count", Better: "lower"},

	{Name: "ra.cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "ra.cycle_allocs", Unit: "count", Better: "lower"},
	{Name: "lamport.cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "lamport.cycle_allocs", Unit: "count", Better: "lower"},
	{Name: "lamport.entries_ratio", Unit: "ratio", Better: "higher"},
	{Name: "lamport.msgs_per_entry", Unit: "count", Better: "lower"},

	{Name: "wrapper.fire_ns", Unit: "ns", Better: "lower"},
	{Name: "wrapper.msgs_per_entry", Unit: "count", Better: "lower"},
	{Name: "wrapper.evals_per_entry", Unit: "count", Better: "lower"},
	{Name: "wrapper.fires_per_entry", Unit: "count", Better: "lower"},
	{Name: "wrapper.storms", Unit: "count", Better: "lower"},
	{Name: "wrapper.off_entries_ratio", Unit: "ratio", Better: "higher"},

	{Name: "wire.codec.v1_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.codec.v2_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.codec.v1_bytes_per_msg", Unit: "count", Better: "lower"},
	{Name: "wire.codec.v2_bytes_per_msg", Unit: "count", Better: "lower"},
	{Name: "wire.codec.v2_entries_ratio", Unit: "ratio", Better: "higher"},

	{Name: "wire.transport.hop_p50_us", Unit: "us", Better: "lower"},
	{Name: "wire.transport.hop_p99_us", Unit: "us", Better: "lower"},
	{Name: "wire.transport.msgs_per_flush", Unit: "count", Better: "higher"},
	{Name: "wire.transport.flushes_per_entry", Unit: "count", Better: "lower"},
	{Name: "wire.transport.bytes_per_entry", Unit: "count", Better: "lower"},
	{Name: "wire.transport.edge_msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "wire.transport.dropped", Unit: "count", Better: "lower"},
	{Name: "wire.transport.conn_errors", Unit: "count", Better: "lower"},
	{Name: "wire.transport.dials", Unit: "count", Better: "lower"},

	{Name: "wire.chaos.overhead_p50_us", Unit: "us", Better: "lower"},
	{Name: "wire.chaos.direct_entries_ratio", Unit: "ratio", Better: "lower"},
	{Name: "wire.chaos.partition_dropped", Unit: "count", Better: "lower"},

	{Name: "engine.dispatch_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.rep_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.kallocs_per_rep", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_entry", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.cpu_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.level1_repairs", Unit: "count", Better: "lower"},
	{Name: "lspec.monitor_cost_ratio", Unit: "ratio", Better: "lower"},
	{Name: "lspec.violations", Unit: "count", Better: "lower"},
	{Name: "lspec.conv_ticks_mean", Unit: "ticks", Better: "lower"},
	{Name: "fault.injected", Unit: "count", Better: "higher"},
	{Name: "hme.acquisitions", Unit: "count", Better: "higher"},
	{Name: "hme.order_violations", Unit: "count", Better: "lower"},

	{Name: "workload.draw_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "twin.entries_residual_pct", Unit: "%", Better: "lower"},
	{Name: "process.cpu_us_per_entry", Unit: "us", Better: "lower"},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "ledger.sum_over_e2e_x1000", Unit: "count", Better: "higher"},
}

// unitOf maps every metric name to its unit.
var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, s := range append(append([]MetricSpec{}, EndToEnd...), PerLayer...) {
		m[s.Name] = s.Unit
	}
	return m
}()
