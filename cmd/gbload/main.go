// Command gbload drives load against a graybox cluster and reports
// throughput, CS-entry latency percentiles, safety, and convergence time
// as an obs metrics snapshot (the same JSON shape tmesim -metrics-json and
// gbnode write).
//
// Loopback mode (default): boot an n-node cluster in-process — one
// runtime.Cluster per node over real TCP loopback sockets — pipe every
// message through the wire.Chaos proxy, and inject the fault plan that
// -scenario compiles to. The default, mixed-burst, is three bursts of every
// injector fault class (message loss, duplication, corruption, state
// perturbation, flush); -scenario partition adds a partition/heal pair.
// The plan is fully determined by -seed: same seed, same fault plan
// (timings are wall-clock and are not).
//
//	gbload -n 5 -duration 10s -seed 1 -check
//
// -check makes the run a gate: exit non-zero unless the cluster converged
// with zero safety violations after convergence. -schedule-out writes the
// pre-drawn fault plan as JSON (two runs with the same seed write
// byte-identical plans).
//
// Remote mode: -connect polls the /metrics.json endpoints of running
// gbnode processes for -duration and reports the merged snapshot plus the
// observed entry rate. No faults are injected (the chaos proxy is in the
// loopback path only).
//
//	gbload -connect 127.0.0.1:8000,127.0.0.1:8001 -duration 10s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/graybox-stabilization/graybox/internal/harness"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/scenario"
	"github.com/graybox-stabilization/graybox/internal/twin"
	"github.com/graybox-stabilization/graybox/internal/wire"
	"github.com/graybox-stabilization/graybox/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gbload:", err)
		os.Exit(1)
	}
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("gbload", flag.ContinueOnError)
	n := fs.Int("n", 3, "cluster size (loopback mode)")
	shards := fs.Int("shards", 1, "independent critical sections; drivers pick each attempt's shard from the workload skew draw")
	duration := fs.Duration("duration", 2*time.Second, "measured run length")
	seed := fs.Int64("seed", 1, "seed for the fault schedule, chaos delays, and think times")
	algo := fs.String("algo", "ra", "protocol: ra or lamport")
	delta := fs.Duration("delta", 25*time.Millisecond, "W' wrapper timeout (negative disables the wrapper)")
	workloadName := fs.String("workload", "", "workload preset shaping the driver traffic (e.g. uniform, poisson, bursty, mixed; empty = uniform defaults)")
	scenarioName := fs.String("scenario", scenario.PresetMixedBurst, "scenario preset compiling to the fault plan (e.g. none, partition, gray-burst, partition-asym, churn)")
	traceOut := fs.String("trace-out", "", "record the workload draws to this JSON schedule file")
	traceIn := fs.String("trace-in", "", "replay a recorded workload schedule file instead of generating draws")
	outPath := fs.String("out", "-", `snapshot output file ("-" = stdout)`)
	check := fs.Bool("check", false, "exit non-zero unless converged with zero post-convergence violations")
	v2Nodes := fs.String("v2", "", "comma-separated process ids that send with the compact v2 wire codec (others stay v1; receivers auto-detect)")
	schedOut := fs.String("schedule-out", "", "also write the pre-drawn fault schedule JSON to this file")
	connect := fs.String("connect", "", "comma-separated gbnode /metrics.json addresses: observe a remote cluster instead of booting loopback")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Status lines move to stderr when the snapshot goes to stdout.
	status := out
	if *outPath == "-" {
		status = errOut
	}

	if *connect != "" {
		return runRemote(strings.Split(*connect, ","), *duration, *outPath, out, status)
	}

	var a harness.Algo
	switch strings.ToLower(*algo) {
	case "ra", "ricart-agrawala":
		a = harness.RA
	case "lamport":
		a = harness.Lamport
	default:
		return fmt.Errorf("unknown -algo %q (want ra or lamport)", *algo)
	}

	cfg := harness.LiveConfig{
		N: *n, Shards: *shards, Algo: a, Seed: *seed, Duration: *duration, Delta: *delta,
	}
	if *v2Nodes != "" {
		ids, err := parseIDs(*v2Nodes, *n)
		if err != nil {
			return fmt.Errorf("bad -v2: %w", err)
		}
		cfg.V2Nodes = ids
	}

	sc, err := scenario.Preset(*scenarioName)
	if err != nil {
		return err
	}
	cfg.Scenario = &sc
	sched := scenario.CompileLive(sc, *seed, *n, *duration).Schedule
	if *schedOut != "" {
		data := []byte("[]\n")
		if sched != nil {
			data = sched.JSON()
		}
		if err := os.WriteFile(*schedOut, data, 0o644); err != nil {
			return fmt.Errorf("write -schedule-out: %w", err)
		}
		fmt.Fprintf(status, "gbload: wrote fault schedule (%d events) to %s\n", schedLen(sched), *schedOut)
	}

	// Workload shaping: -trace-in replays a recorded schedule verbatim;
	// -workload picks a generator preset; otherwise RunLive draws from its
	// default spec (cfg.Spec()).
	switch {
	case *traceIn != "":
		data, err := os.ReadFile(*traceIn)
		if err != nil {
			return fmt.Errorf("read -trace-in: %w", err)
		}
		trace, err := workload.LoadSchedule(data)
		if err != nil {
			return fmt.Errorf("parse -trace-in: %w", err)
		}
		cfg.WorkloadTrace = trace
	case *workloadName != "":
		spec, err := workload.Preset(*workloadName)
		if err != nil {
			return err
		}
		cfg.Workload = &spec
	}
	if *traceOut != "" {
		// Same spec and stream RunLive uses (seed+100), so the recording
		// replays the exact draws of this run when fed back through -trace-in.
		items := int(duration.Milliseconds()/20) + 16
		trace := workload.Record(cfg.Spec(), *seed+100, *n, items)
		if err := os.WriteFile(*traceOut, trace.JSON(), 0o644); err != nil {
			return fmt.Errorf("write -trace-out: %w", err)
		}
		fmt.Fprintf(status, "gbload: wrote workload trace (%d clients × %d draws) to %s\n", *n, items, *traceOut)
	}

	o := obs.New(obs.Options{})
	cfg.Obs = o
	fmt.Fprintf(status, "gbload: loopback cluster n=%d shards=%d algo=%v delta=%v duration=%v seed=%d (%d scheduled events)\n",
		*n, *shards, a, *delta, *duration, *seed, schedLen(sched))
	res, err := harness.RunLive(cfg)
	if err != nil {
		return err
	}

	recordResult(o.Registry(), res)
	pred := predictRun(o.Registry(), cfg, a)
	fmt.Fprintf(status, "gbload: %d entries (%.0f/s), p50/p95/p99 %d/%d/%d µs, %d faults, %d violations (%d after convergence), converged=%v in %dms\n",
		res.Entries, res.ThroughputPerSec,
		res.LatP50US, res.LatP95US, res.LatP99US,
		res.FaultsApplied, res.SafetyViolations, res.SafetyViolationsAfterConvergence,
		res.Converged, res.ConvergenceMS)
	if err := writeSnapshot(*outPath, out, o.Registry(), status); err != nil {
		return err
	}
	if *check {
		if pred != nil {
			drift := "n/a"
			if pred.Entries > 0 {
				drift = fmt.Sprintf("%+.1f%%", 100*(float64(res.Entries)-pred.Entries)/pred.Entries)
			}
			fmt.Fprintf(status, "gbload: twin predicted %.0f entries for the fault-free run (observed %d, %s), %.1f msgs/entry, saturation %.0f entries/s\n",
				pred.Entries, res.Entries, drift,
				pred.MsgsPerEntry, pred.SaturationRate*1000)
		}
		if !res.Converged {
			return fmt.Errorf("check failed: cluster did not converge (last fault at %dms)", res.LastFaultMS)
		}
		if res.SafetyViolationsAfterConvergence > 0 {
			return fmt.Errorf("check failed: %d safety violations after convergence", res.SafetyViolationsAfterConvergence)
		}
		fmt.Fprintln(status, "gbload: check passed (converged, zero post-convergence violations)")
	}
	return nil
}

// predictRun asks the analytical twin for the fault-free forecast of this
// run's workload (1 tick = 1ms live; link delays modeled at the chaos
// proxy's default 1–3ms band) and publishes it as gbload_twin_* gauges so
// the snapshot carries predicted next to observed. Trace replays have no
// closed form, so they get no prediction (nil).
func predictRun(r *obs.Registry, cfg harness.LiveConfig, a harness.Algo) *twin.Prediction {
	if cfg.WorkloadTrace != nil {
		return nil
	}
	delta := int64(cfg.Delta / harness.LiveTick)
	switch {
	case cfg.Delta < 0:
		delta = -1
	case cfg.Delta == 0:
		delta = 25 // RunLive's default W' timeout
	case delta == 0:
		delta = 1 // sub-millisecond timeout still is a wrapper
	}
	pred := twin.Predict(twin.SpecParams(twin.Params{
		N: cfg.N, Shards: cfg.Shards, Algo: a.String(),
		Delta: delta, MinDelay: 1, MaxDelay: 3,
		Horizon: int64(cfg.Duration / harness.LiveTick),
	}, cfg.Spec()))
	set := func(name, help string, v int64) { r.Gauge(name, help).Set(v) }
	set("gbload_twin_entries_predicted", "twin forecast of fault-free CS entries", int64(pred.Entries+0.5))
	set("gbload_twin_msgs_per_entry_x1000", "twin forecast of program msgs per entry (×1000)", int64(pred.MsgsPerEntry*1000+0.5))
	set("gbload_twin_saturation_per_sec", "twin forecast of the entry-rate ceiling (entries/s)", int64(pred.SaturationRate*1000+0.5))
	return &pred
}

// schedLen reports the event count of a possibly-nil schedule (scenario
// "none" compiles to no fault plan at all).
func schedLen(s *wire.FaultSchedule) int {
	if s == nil {
		return 0
	}
	return len(s.Events)
}

// recordResult publishes the run's headline measurements as gbload_*
// gauges so the snapshot carries them alongside the runtime/wire/chaos
// instruments.
func recordResult(r *obs.Registry, res harness.LiveResult) {
	set := func(name, help string, v int64) { r.Gauge(name, help).Set(v) }
	set("gbload_n", "cluster size", int64(res.N))
	set("gbload_duration_ms", "measured run length", res.DurationMS)
	set("gbload_entries", "CS entries across the cluster", int64(res.Entries))
	set("gbload_requests", "CS requests issued by the drivers", int64(res.Requests))
	set("gbload_throughput_per_sec", "CS entries per second (rounded)", int64(res.ThroughputPerSec+0.5))
	set("gbload_lat_p50_us", "CS-entry latency p50", res.LatP50US)
	set("gbload_lat_p95_us", "CS-entry latency p95", res.LatP95US)
	set("gbload_lat_p99_us", "CS-entry latency p99", res.LatP99US)
	set("gbload_faults_applied", "injector faults plus partition/heal events", int64(res.FaultsApplied))
	set("gbload_safety_violations", "sampled ME1 violations", int64(res.SafetyViolations))
	set("gbload_safety_violations_after_convergence", "ME1 violations after the convergence point", int64(res.SafetyViolationsAfterConvergence))
	set("gbload_convergence_ms", "last fault to convergence point (-1 = never)", res.ConvergenceMS)
	converged := int64(0)
	if res.Converged {
		converged = 1
	}
	set("gbload_converged", "1 when progress resumed after the convergence point", converged)
	// Sharded runs publish their per-shard entry counts as gauges, so skew
	// is visible straight from the snapshot.
	for s, e := range res.EntriesByShard {
		r.Gauge(fmt.Sprintf("gbload_shard_%d_entries", s), "CS entries on one shard").Set(int64(e))
	}
	// Wire throughput: framed messages per second across the whole cluster,
	// from the transport's own counter — the live-path number the batched
	// sender work is gated on.
	if res.Snapshot != nil && res.DurationMS > 0 {
		msgs := res.Snapshot.Counter("wire_msgs_sent_total")
		set("gbload_msgs_per_sec", "wire messages framed per second, cluster-wide",
			(msgs*1000+res.DurationMS/2)/res.DurationMS)
	}
}

// parseIDs parses a comma-separated process id list, checking range.
func parseIDs(s string, n int) ([]int, error) {
	var ids []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var id int
		if _, err := fmt.Sscanf(part, "%d", &id); err != nil {
			return nil, fmt.Errorf("%q is not a process id", part)
		}
		if id < 0 || id >= n {
			return nil, fmt.Errorf("id %d out of range [0,%d)", id, n)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// runRemote observes a running cluster: snapshot every node's
// /metrics.json, wait, snapshot again, and report the merged final state
// plus the observed entry rate over the window.
func runRemote(addrs []string, dur time.Duration, outPath string, out, status io.Writer) error {
	before, err := fetchMerged(addrs)
	if err != nil {
		return err
	}
	fmt.Fprintf(status, "gbload: observing %d node(s) for %v\n", len(addrs), dur)
	time.Sleep(dur)
	after, err := fetchMerged(addrs)
	if err != nil {
		return err
	}
	entries := after.Counter("runtime_entries_total") - before.Counter("runtime_entries_total")
	r := obs.NewRegistry()
	r.Gauge("gbload_n", "observed node count").Set(int64(len(addrs)))
	r.Gauge("gbload_duration_ms", "observation window").Set(dur.Milliseconds())
	r.Gauge("gbload_entries", "CS entries during the window").Set(entries)
	if ms := dur.Milliseconds(); ms > 0 {
		r.Gauge("gbload_throughput_per_sec", "CS entries per second (rounded)").
			Set((entries*1000 + ms/2) / ms)
	}
	merged := r.Snapshot()
	merged.Merge(after)
	fmt.Fprintf(status, "gbload: %d entries over %v across %d node(s)\n", entries, dur, len(addrs))
	return writeSnapshotValue(outPath, out, merged, status)
}

// fetchMerged pulls /metrics.json from every address and merges the
// snapshots (counters sum, gauges keep the max).
func fetchMerged(addrs []string) (*obs.Snapshot, error) {
	merged := obs.NewSnapshot()
	client := &http.Client{Timeout: 5 * time.Second}
	for _, a := range addrs {
		a = strings.TrimSpace(a)
		url := a
		if !strings.Contains(url, "://") {
			url = "http://" + a
		}
		resp, err := client.Get(strings.TrimSuffix(url, "/") + "/metrics.json")
		if err != nil {
			return nil, fmt.Errorf("fetch %s: %w", a, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", a, err)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("fetch %s: HTTP %d", a, resp.StatusCode)
		}
		s := obs.NewSnapshot()
		if err := json.Unmarshal(body, s); err != nil {
			return nil, fmt.Errorf("parse %s: %w", a, err)
		}
		merged.Merge(s)
	}
	return merged, nil
}

func writeSnapshot(path string, out io.Writer, r *obs.Registry, status io.Writer) error {
	return writeSnapshotValue(path, out, r.Snapshot(), status)
}

func writeSnapshotValue(path string, out io.Writer, s *obs.Snapshot, status io.Writer) error {
	if path == "-" {
		return s.WriteJSON(out)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.WriteJSON(f); err != nil {
		return err
	}
	fmt.Fprintf(status, "gbload: wrote snapshot to %s\n", path)
	return nil
}
