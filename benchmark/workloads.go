package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/graybox-stabilization/graybox/internal/harness"
	"github.com/graybox-stabilization/graybox/internal/wire"
	"github.com/graybox-stabilization/graybox/internal/workload"
)

// Sizes the workloads share. A live cluster has liveN nodes and one client
// per node, which on the two cores this was sized on is already more
// goroutines than processors; more clients would measure the scheduler.
const (
	liveN = 5
	// liveSegments is how many segments a live run splits its measured
	// window into. Each segment is set up afresh (inputs drawn, a discarded
	// warm-up run booted and torn down, then the measured cluster booted),
	// so a run sets up several times and setup_s is the median; timings are
	// the median segment, so one stall cannot move a figure.
	liveSegments = 3
	// liveWarmup is the discarded live run of each set-up.
	liveWarmup = 100 * time.Millisecond
	// minSimReps is the fewest fixed-work repetitions a sim run measures,
	// however short --seconds is.
	minSimReps = 3
)

// Partition cycle of live-partition-heal, in milliseconds: the first cut
// is at cutStartMS, every cycle cuts a two-node group for cutMS and heals
// for healedMS, and the last heal leaves healedMS before the run ends.
const (
	cutStartMS = 500
	cutMS      = 100
	healedMS   = 200
)

// liveInputs builds everything a live workload hands the program: the
// configuration, the recorded client draws, and (for live-partition-heal)
// the fault schedule. The same workload, seed and duration give the same
// inputs, byte for byte.
func liveInputs(name string, seed int64, dur time.Duration) (harness.LiveConfig, error) {
	cfg := harness.LiveConfig{
		N: liveN, Algo: harness.RA, Seed: seed, Duration: dur,
		Delta:   25 * time.Millisecond,
		EatTime: time.Millisecond,
	}
	switch name {
	case LiveUncontended:
		// The proxy stays in the path with its hold fixed at 1us, so the
		// latency is the code's own and not injected delay.
		cfg.ChaosMinDelay, cfg.ChaosMaxDelay = time.Microsecond, time.Microsecond
		cfg.ThinkMin, cfg.ThinkMax = 10*time.Millisecond, 30*time.Millisecond
	case LiveSaturated:
		cfg.ChaosMinDelay, cfg.ChaosMaxDelay = time.Microsecond, time.Microsecond
		cfg.ThinkMin, cfg.ThinkMax = time.Millisecond, time.Millisecond
	case LivePartitionHeal:
		// Stated injected delay: the proxy default, U[0.5, 3] ms per message.
		cfg.ChaosMinDelay, cfg.ChaosMaxDelay = 500*time.Microsecond, 3*time.Millisecond
		cfg.ThinkMin, cfg.ThinkMax = harness.DefaultThinkMin, harness.DefaultThinkMax
		cfg.Schedule = partitionSchedule(seed, liveN, dur)
	default:
		return cfg, fmt.Errorf("no live workload %q", name)
	}
	spec := workload.UniformSpec(
		int64(cfg.ThinkMin/harness.LiveTick), int64(cfg.ThinkMax/harness.LiveTick),
		int64(cfg.EatTime/harness.LiveTick))
	// Enough draws for every client at the fastest possible cycle; replay
	// wraps round if a run outlasts them.
	items := int(dur/(cfg.ThinkMin+cfg.EatTime)) + 64
	cfg.WorkloadTrace = workload.Record(spec, seed+100, liveN, items)
	return cfg, nil
}

// partitionSchedule plans the partition/heal cycles that fit in dur: a
// two-node group rotating round the cluster from a seeded start, with a
// seeded partner.
func partitionSchedule(seed int64, n int, dur time.Duration) *wire.FaultSchedule {
	rng := rand.New(rand.NewSource(seed))
	start := rng.Intn(n)
	s := &wire.FaultSchedule{Seed: seed}
	period := int64(cutMS + healedMS)
	for i := int64(0); cutStartMS+i*period+cutMS+healedMS <= dur.Milliseconds(); i++ {
		a := (start + int(i)) % n
		b := (a + 1 + rng.Intn(n-1)) % n
		group := []int{a, b}
		sort.Ints(group)
		at := cutStartMS + i*period
		s.Events = append(s.Events,
			wire.FaultEvent{AtMS: at, Verb: wire.VerbPartition, Group: group},
			wire.FaultEvent{AtMS: at + cutMS, Verb: wire.VerbHeal},
		)
	}
	return s
}

// simStabilizeRuns is one repetition of sim-stabilize: the researcher's
// E2/E16 loop, alternating the two protocols over a seed set.
const simStabilizeRuns = 100

func simStabilizeInputs(seed int64, runs int) []harness.RunConfig {
	cfgs := make([]harness.RunConfig, runs)
	for i := range cfgs {
		algo := harness.RA
		if i%2 == 1 {
			algo = harness.Lamport
		}
		cfgs[i] = harness.RunConfig{
			Algo: algo, N: 5,
			Seed: seed*1000 + int64(i), FaultSeed: seed*1000 + 500 + int64(i),
			Delta:      5,
			FaultTimes: []int64{200, 300}, FaultsPerBurst: 10,
			MaxRequests: 30, Horizon: 20000,
			Monitor: true,
		}
	}
	return cfgs
}

// simShardedInputs is the E17 full configuration; seed 1 is E17's own seed
// pair (17, 23). loops is 16 for a measured repetition.
func simShardedInputs(seed int64, loops int) harness.ShardedRunConfig {
	return harness.ShardedRunConfig{
		Algo: harness.RA, N: 100, Shards: 8, Clients: 640,
		Seed: 16 + seed, FaultSeed: 22 + seed,
		Delta:      20000,
		CrossEvery: 5,
		MaxLoops:   loops,
		Horizon:    4000000,
		FaultTimes: []int64{500, 1500}, FaultsPerBurst: 4,
	}
}

// usage is the process-wide cost counters read round every measured
// window: wall clock, CPU time (user + system, from getrusage, the check
// on wall-clock noise) and heap allocations.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
	}
}

// cost is the difference between two usage readings.
type cost struct {
	wall, cpu time.Duration
	mallocs   uint64
}

func (u usage) since(start usage) cost {
	return cost{wall: u.wall.Sub(start.wall), cpu: u.cpu - start.cpu, mallocs: u.mallocs - start.mallocs}
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // as in readUsage
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// liveSegment is one measured live run with what it cost the process.
type liveSegment struct {
	res  harness.LiveResult
	cost cost
}

// runLive does the set-ups and measured segments of a live workload
// through the product's own run path.
func runLive(name string, seed int64, seconds float64) (setup []float64, segs []liveSegment, err error) {
	segDur := time.Duration(seconds * float64(time.Second) / liveSegments)
	for i := 0; i < liveSegments; i++ {
		segSeed := seed*10 + int64(i)
		t0 := time.Now()
		cfg, err := liveInputs(name, segSeed, segDur)
		if err != nil {
			return nil, nil, err
		}
		warm := cfg
		warm.Duration, warm.Schedule = liveWarmup, nil
		if _, err := harness.RunLive(warm); err != nil {
			return nil, nil, fmt.Errorf("%s warm-up: %w", name, err)
		}
		setup = append(setup, time.Since(t0).Seconds())

		runtime.GC()
		before := readUsage()
		res, err := harness.RunLive(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		segs = append(segs, liveSegment{res: res, cost: readUsage().since(before)})
	}
	return setup, segs, nil
}

// simWork returns the fixed work of a sim workload: the measured
// repetition when full, a tenth to a third of it (the set-up's warm-up
// and the traced runs' probe) when not.
func simWork(name string, seed int64) func(full bool) simCounts {
	if name == SimSharded {
		return func(full bool) simCounts {
			loops := 16
			if !full {
				loops = 5 // the fewest with a two-shard acquisition (every fifth loop)
			}
			return runSharded(simShardedInputs(seed, loops))
		}
	}
	return func(full bool) simCounts {
		runs := simStabilizeRuns
		if !full {
			runs /= 10
		}
		return runStabilize(simStabilizeInputs(seed, runs))
	}
}

// simRep is one fixed-work repetition of a sim workload: its cost and the
// exact counts that must not differ between repetitions.
type simRep struct {
	cost   cost
	counts simCounts
}

// timedRep collects garbage, so that earlier work's garbage is not this
// work's pause, and then runs work once, full size or reduced, under the
// process's cost counters.
func timedRep(work func(full bool) simCounts, full bool) simRep {
	runtime.GC()
	before := readUsage()
	counts := work(full)
	return simRep{cost: readUsage().since(before), counts: counts}
}

// runSim repeats the fixed work of a sim workload until seconds have been
// measured (at least minSimReps times). Every repetition is set up afresh:
// inputs drawn and a discarded reduced repetition run, which is one set-up.
// The set-ups are spread over the run on purpose: this box slows down for
// seconds at a time, and set-ups done back to back would all fall in one
// spell.
func runSim(name string, seed int64, seconds float64) (setup []float64, reps []simRep) {
	defer discardStderr()()
	work := simWork(name, seed)
	var measured time.Duration
	for len(reps) < minSimReps || measured.Seconds() < seconds {
		setup = append(setup, timedRep(work, false).cost.wall.Seconds())
		rep := timedRep(work, true)
		reps = append(reps, rep)
		measured += rep.cost.wall
	}
	return setup, reps
}

// runStabilize runs the seed set on one engine core, one run after the
// other, and sums what the runs report.
func runStabilize(cfgs []harness.RunConfig) simCounts {
	var c simCounts
	for _, cfg := range cfgs {
		c.addRun(cfg.N, harness.Run(cfg))
	}
	return c
}

// runSharded runs one sharded simulation.
func runSharded(cfg harness.ShardedRunConfig) simCounts {
	var c simCounts
	c.addSharded(cfg, harness.RunSharded(cfg))
	return c
}

// discardStderr silences the process's stderr until the returned function
// is called. The wrapper layer warns there when W' fires for many windows
// in a row, which both sim workloads do by design (E17's δ under its
// queueing wait, δ=5 under a fault burst); thousands of warning lines are
// not results.
func discardStderr() (restore func()) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return func() {}
	}
	saved := os.Stderr
	os.Stderr = null
	return func() {
		os.Stderr = saved
		_ = null.Close() // nothing was buffered
	}
}
