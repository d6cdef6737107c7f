package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/graybox-stabilization/graybox/internal/harness"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/twin"
	"github.com/graybox-stabilization/graybox/internal/wire"
	"github.com/graybox-stabilization/graybox/internal/workload"
)

// observedLive is a product live run watched through the public
// LiveConfig.Obs hook: the times of every fault event (partition or heal)
// and of every entry, a few hundred events a second.
type observedLive struct {
	cfg     harness.LiveConfig
	res     harness.LiveResult
	faults  []int64 // partition and heal events, ns, in order
	heals   []int64
	entries []int64
}

func runObservedLive(cfg harness.LiveConfig) (*observedLive, error) {
	ol := &observedLive{cfg: cfg}
	var mu sync.Mutex
	// The ring is not read; the callback is the channel. Capacity 1 is the
	// smallest that turns tracing on.
	cfg.Obs = obs.New(obs.Options{TraceCapacity: 1, OnEvent: func(e obs.Event) {
		mu.Lock()
		defer mu.Unlock()
		if e.Kind == obs.EvFault {
			ol.faults = append(ol.faults, e.Time)
			if e.Detail == "heal" {
				ol.heals = append(ol.heals, e.Time)
			}
		}
		if e.Kind == obs.EvProgress {
			ol.entries = append(ol.entries, e.Time)
		}
	}})
	res, err := harness.RunLive(cfg)
	if err != nil {
		return nil, err
	}
	ol.res = res
	return ol, nil
}

// recoveries pairs every heal with the next entry anywhere in the cluster
// and returns the gaps in milliseconds. A heal no entry followed (the run
// ended first) has no gap.
func recoveries(heals, entries []int64) []float64 {
	var out []float64
	for _, h := range heals {
		next := int64(-1)
		for _, e := range entries {
			if e > h && (next < 0 || e < next) {
				next = e
			}
		}
		if next >= 0 {
			out = append(out, float64(next-h)/1e6)
		}
	}
	return out
}

// scheduleLateness is how much later than planned each schedule event
// fired, in microseconds, taking the first event as on time (the run's own
// start instant is not visible from outside).
func scheduleLateness(sched *wire.FaultSchedule, fired []int64) []float64 {
	if sched == nil || len(fired) == 0 {
		return nil
	}
	var out []float64
	for i, t := range fired {
		if i >= len(sched.Events) {
			break
		}
		planned := (sched.Events[i].AtMS - sched.Events[0].AtMS) * int64(time.Millisecond)
		out = append(out, float64((t-fired[0])-planned)/1e3)
	}
	return out
}

// twinResidual is how far the analytical twin's forecast of fault-free
// entries is from the entries observed, as a percentage of the forecast.
// The live clock reads one workload tick as a millisecond, and the twin's
// link delay is in the same ticks, so the stated injected delay is rounded
// up to whole ticks.
func twinResidual(cfg harness.LiveConfig, entries int) float64 {
	ticks := func(d time.Duration) int64 { return int64(math.Ceil(float64(d) / float64(harness.LiveTick))) }
	spec := workload.UniformSpec(ticks(cfg.ThinkMin), ticks(cfg.ThinkMax), ticks(cfg.EatTime))
	pred := twin.Predict(twin.SpecParams(twin.Params{
		N: cfg.N, Algo: cfg.Algo.String(), Delta: ticks(cfg.Delta),
		MinDelay: ticks(cfg.ChaosMinDelay), MaxDelay: ticks(cfg.ChaosMaxDelay),
		Horizon: ticks(cfg.Duration),
	}, spec))
	return ratio(float64(entries)-pred.Entries, pred.Entries) * 100
}

// layerOutcome does the traced run of one workload: it fills r with every
// per-layer metric and returns the spans of the traced cluster run.
//
// The run has four parts, each a share of seconds. The workload itself
// runs through the product path for its counts. The benchmark's own
// composition runs it again twice, traced and untraced, for the span
// timings and the tracing overhead. Fixed probes measure what the workload
// does not exercise: the saturated hand-off variants, a partition-heal run,
// the simulators. Direct-call timers measure single functions.
func layerOutcome(r *Result, seconds float64) ([]Span, error) {
	name, seed := r.Workload, r.Seed
	share := func(s float64) time.Duration { return time.Duration(s / 12 * seconds * float64(time.Second)) }

	// The workload, or the probe standing in for its kind.
	liveName, liveDur := LiveUncontended, share(1.5)
	if isLive(name) {
		liveName, liveDur = name, share(4)
	}
	liveCfg, err := liveInputs(liveName, seed, liveDur)
	if err != nil {
		return nil, err
	}
	before := readUsage()
	live, err := runObservedLive(liveCfg)
	if err != nil {
		return nil, err
	}
	cpu, entries := readUsage().since(before).cpu, float64(live.res.Entries)
	if isLive(name) {
		liveVerdict(r, name, 0, live.res)
	}
	heal := live
	if name != LivePartitionHeal {
		cfg, err := liveInputs(LivePartitionHeal, seed, share(2))
		if err != nil {
			return nil, err
		}
		if heal, err = runObservedLive(cfg); err != nil {
			return nil, err
		}
	}
	liveLayers(r, live, heal)

	restore := discardStderr()
	stab := simProbe(name == SimStabilize, seconds/4, simWork(SimStabilize, seed))
	shard := simProbe(name == SimSharded, seconds/4, simWork(SimSharded, seed))
	monitorRatio := monitorCost(seed)
	restore()
	own := stab
	if name == SimSharded {
		own = shard
	}
	if !isLive(name) {
		simVerdict(r, own)
		_, cpu, _ = repCosts(own)
		entries = float64(own[0].counts.Entries)
	}
	r.set("process.cpu_us_per_entry", ratio(float64(cpu.Microseconds()), entries), 0)
	simLayers(r, own, stab, shard, monitorRatio)

	spans, err := tracedLayers(r, liveName, seed, share(2))
	if err != nil {
		return nil, err
	}
	if err := handoffLayers(r, seed, share(1.5)); err != nil {
		return nil, err
	}
	if err := directLayers(r); err != nil {
		return nil, err
	}
	r.set("process.peak_rss_mb", peakRSSMB(), 0)
	return spans, nil
}

// liveLayers reads the live layers' counts from the product run's own
// metrics snapshot, and the recovery figures from the partition-heal run.
func liveLayers(r *Result, live, heal *observedLive) {
	res, snap := live.res, live.res.Snapshot
	entries := float64(res.Entries)
	per := func(counter string) float64 { return ratio(float64(snap.Counter(counter)), entries) }
	r.set("harness.entry_p99_us", float64(res.LatP99US), res.Entries)
	r.set("harness.fair_entry_ratio_x1000", float64(snap.Gauge("fair_entry_ratio_x1000", 0)), 0)
	r.set("harness.unserved_requests", math.Max(0, float64(res.Requests-res.Entries)), 0)
	r.set("runtime.level1_repairs", float64(snap.Counter("runtime_level1_repairs_total")), 0)
	r.set("wrapper.msgs_per_entry", per("wrapper_msgs_total"), 0)
	r.set("wrapper.evals_per_entry", per("wrapper_evals_total"), 0)
	r.set("wrapper.fires_per_entry", per("wrapper_fires_total"), 0)
	r.set("wrapper.storms", float64(snap.Counter("wrapper_resend_storm_total")), 0)
	r.set("wire.transport.msgs_per_flush",
		ratio(float64(snap.Counter("wire_msgs_sent_total")), float64(snap.Counter("wire_flushes_total"))), 0)
	r.set("wire.transport.flushes_per_entry", per("wire_flushes_total"), 0)
	r.set("wire.transport.bytes_per_entry", per("wire_bytes_sent_total"), 0)
	r.set("wire.transport.dropped", float64(snap.Counter("wire_msgs_dropped_total")), 0)
	r.set("wire.transport.conn_errors", float64(snap.Counter("wire_conn_errors_total")), 0)
	r.set("wire.transport.dials", float64(snap.Counter("wire_dials_total")), 0)
	r.set("twin.entries_residual_pct", twinResidual(live.cfg, res.Entries), 0)

	rec := recoveries(heal.heals, heal.entries)
	r.set("harness.recovery_mean_ms", mean(rec), len(rec))
	r.set("harness.recovery_p50_ms", quantile(rec, 0.5), len(rec))
	r.set("harness.recovery_p90_ms", quantile(rec, 0.9), len(rec))
	late := scheduleLateness(heal.cfg.Schedule, heal.faults)
	r.set("harness.schedule_lateness_p99_us", quantile(late, 0.99), len(late))
	r.set("wire.chaos.partition_dropped",
		float64(heal.res.Snapshot.Counter("chaos_partition_dropped_total")), 0)
}

func mean(vs []float64) float64 {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return ratio(sum, float64(len(vs)))
}

// simProbe repeats work at full size for about seconds when the traced
// workload is this simulator, and runs it once at probe size otherwise.
func simProbe(isWorkload bool, seconds float64, work func(full bool) simCounts) []simRep {
	reps := []simRep{timedRep(work, isWorkload)}
	for measured := reps[0].cost.wall; isWorkload && (len(reps) < 2 || measured.Seconds() < seconds); {
		rep := timedRep(work, true)
		reps = append(reps, rep)
		measured += rep.cost.wall
	}
	return reps
}

// monitorCost is the wall time of a probe-size sim-stabilize repetition
// with the Lspec/TME monitors on over the same with them off.
func monitorCost(seed int64) float64 {
	cfgs := simStabilizeInputs(seed, simStabilizeRuns/10)
	timeRuns := func(monitor bool) float64 {
		for i := range cfgs {
			cfgs[i].Monitor = monitor
		}
		var best float64
		for i := 0; i < 3; i++ {
			runtime.GC()
			t0 := time.Now()
			runStabilize(cfgs)
			if d := time.Since(t0).Seconds(); best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	return ratio(timeRuns(true), timeRuns(false))
}

// simLayers reports the simulator layers: wall, CPU and allocation cost
// from own (the traced workload if it is a simulator, the stabilize probe
// otherwise), spec-monitor results from the stabilize run and lock-set
// results from the sharded run.
func simLayers(r *Result, own, stab, shard []simRep, monitorRatio float64) {
	wall, cpu, mallocs := repCosts(own)
	c := own[0].counts
	events := float64(c.Events)
	r.set("sim.rep_ms", wall.Seconds()*1e3, len(own))
	r.set("sim.kallocs_per_rep", mallocs/1e3, 0)
	r.set("sim.events_per_entry", ratio(events, float64(c.Entries)), 0)
	r.set("sim.events_per_s", ratio(events, wall.Seconds()), len(own))
	r.set("sim.cpu_ns_per_event", ratio(float64(cpu.Nanoseconds()), events), len(own))
	r.set("sim.level1_repairs", float64(c.Level1Repairs), 0)
	s := stab[0].counts
	r.set("lspec.monitor_cost_ratio", monitorRatio, 3)
	r.set("lspec.violations", float64(s.Violations), 0)
	r.set("lspec.conv_ticks_mean", ratio(float64(s.ConvTicks), float64(s.Runs)), 0)
	r.set("fault.injected", float64(s.Faults), 0)
	h := shard[0].counts
	r.set("hme.acquisitions", float64(h.HMEAcquisitions), 0)
	r.set("hme.order_violations", float64(h.HMEOrder), 0)
}

// tracedLayers runs liveName on the benchmark's own composition, once
// untraced and once traced, and reports the span timings.
func tracedLayers(r *Result, liveName string, seed int64, dur time.Duration) ([]Span, error) {
	cfg, err := liveInputs(liveName, seed, dur)
	if err != nil {
		return nil, err
	}
	plain, err := runOwned(ownedConfig{live: cfg})
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	traced, err := runOwned(ownedConfig{live: cfg, tr: tr})
	if err != nil {
		return nil, err
	}
	spans := buildSpans(cfg.N, tr.msgs, tr.entries)

	p50 := func(span string) (float64, int) {
		d := spanDurationsUS(spans, span)
		return median(d), len(d)
	}
	for metric, span := range map[string]string{
		"runtime.request_call_us":     spanRequest,
		"runtime.release_call_us":     spanRelease,
		"runtime.reply_turnaround_us": spanTurnaround,
		"runtime.deliver_to_entry_us": spanToEntry,
	} {
		v, n := p50(span)
		r.set(metric, v, n)
	}
	hops := spanDurationsUS(spans, spanHop)
	r.set("wire.transport.hop_p50_us", median(hops), len(hops))
	r.set("wire.transport.hop_p99_us", quantile(hops, 0.99), len(hops))
	inProxy, n := p50(spanChaos)
	hold := float64((cfg.ChaosMinDelay+cfg.ChaosMaxDelay)/2) / 1e3
	r.set("wire.chaos.overhead_p50_us", inProxy-hold, n)
	r.set("runtime.phase_call_ns", plain.phaseNS, 2000)
	sum, entries := ledger(spans)
	r.set("ledger.sum_over_e2e_x1000", sum, entries)
	r.set("trace.overhead_pct",
		ratio(median(traced.latencies)-median(plain.latencies), median(plain.latencies))*100, len(traced.latencies))
	if traced.entries == 0 || plain.entries == 0 {
		return nil, fmt.Errorf("traced run of %s: no entries (%d traced, %d untraced)", liveName, traced.entries, plain.entries)
	}
	return spans, nil
}

// handoffLayers reruns the live-saturated configuration with one thing
// changed at a time. Every process is always hungry there, so entries per
// second is the hand-off rate, and each ratio is what that one thing costs.
func handoffLayers(r *Result, seed int64, dur time.Duration) error {
	base, err := liveInputs(LiveSaturated, seed, dur)
	if err != nil {
		return err
	}
	variant := func(change func(*harness.LiveConfig)) (harness.LiveResult, error) {
		cfg := base
		change(&cfg)
		return harness.RunLive(cfg)
	}
	product, err := variant(func(*harness.LiveConfig) {})
	if err != nil {
		return err
	}
	lamport, err := variant(func(c *harness.LiveConfig) { c.Algo = harness.Lamport })
	if err != nil {
		return err
	}
	unwrapped, err := variant(func(c *harness.LiveConfig) { c.Delta = -1 })
	if err != nil {
		return err
	}
	v2, err := variant(func(c *harness.LiveConfig) {
		for i := 0; i < c.N; i++ {
			c.V2Nodes = append(c.V2Nodes, i)
		}
	})
	if err != nil {
		return err
	}
	notified, err := runOwned(ownedConfig{live: base})
	if err != nil {
		return err
	}
	direct, err := runOwned(ownedConfig{live: base, noProxy: true})
	if err != nil {
		return err
	}
	handoff := ratio(1e6, product.ThroughputPerSec)
	r.set("harness.handoff_us", handoff, product.Entries)
	r.set("harness.driver_gap_us", handoff-ratio(1e6, notified.entriesPerS()), notified.entries)
	r.set("lamport.entries_ratio", ratio(lamport.ThroughputPerSec, product.ThroughputPerSec), 0)
	r.set("lamport.msgs_per_entry",
		ratio(float64(lamport.Snapshot.Counter("runtime_msgs_sent_total")), float64(lamport.Entries)), 0)
	r.set("wrapper.off_entries_ratio", ratio(unwrapped.ThroughputPerSec, product.ThroughputPerSec), 0)
	r.set("wire.codec.v2_entries_ratio", ratio(v2.ThroughputPerSec, product.ThroughputPerSec), 0)
	r.set("wire.chaos.direct_entries_ratio", ratio(direct.entriesPerS(), notified.entriesPerS()), 0)
	return nil
}

// directLayers runs the direct-call timers.
func directLayers(r *Result) error {
	raNS, raAllocs, err := protocolCycle(harness.RA.Factory())
	if err != nil {
		return fmt.Errorf("ra: %w", err)
	}
	lamNS, lamAllocs, err := protocolCycle(harness.Lamport.Factory())
	if err != nil {
		return fmt.Errorf("lamport: %w", err)
	}
	r.set("ra.cycle_ns", raNS, 20000)
	r.set("ra.cycle_allocs", raAllocs, 0)
	r.set("lamport.cycle_ns", lamNS, 20000)
	r.set("lamport.cycle_allocs", lamAllocs, 0)
	fireNS, err := wrapperFire()
	if err != nil {
		return err
	}
	r.set("wrapper.fire_ns", fireNS, 200000)
	for version, name := range map[int]string{wire.Version: "v1", wire.Version2: "v2"} {
		ns, size, err := codecCost(version)
		if err != nil {
			return err
		}
		r.set("wire.codec."+name+"_ns_per_msg", ns, 50*4096)
		r.set("wire.codec."+name+"_bytes_per_msg", size, 0)
	}
	edge, err := edgeThroughput()
	if err != nil {
		return err
	}
	r.set("wire.transport.edge_msgs_per_s", edge, 200000)
	r.set("engine.dispatch_ns_per_event", engineDispatch(), 0)
	r.set("workload.draw_ns", workloadDraw(), 500000)
	r.set("obs.snapshot_us", obsSnapshot(), 2000)
	return nil
}
