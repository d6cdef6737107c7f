// Package scenario is the declarative gray-failure matrix: a Spec names a
// fault environment — perturb-heavy slow links, asymmetric partitions,
// crash/recover churn, clock skew — and compiles it to the repository's
// existing fault primitives so the *same* scenario runs identically on the
// virtual-time simulator (fault.Mix + injector burst times), the goroutine
// runtime, and the live TCP cluster (wire.FaultSchedule applied through the
// chaos proxy).
//
// Compilation is a pure function of (Spec, seed, run length): the same
// seed yields byte-identical fault plans, which is what makes a workload ×
// scenario sweep comparable across substrates. The shapes follow the
// adversary taxonomy of Devismes/Tixeuil/Yamashita (stabilization behavior
// depends on the scheduler/adversary) and the gray-failure literature:
// "slow but alive" is a first-class failure mode here, not a crash.
package scenario

import (
	"fmt"
	"sort"
	"time"

	"github.com/graybox-stabilization/graybox/internal/fault"
	"github.com/graybox-stabilization/graybox/internal/seeded"
	"github.com/graybox-stabilization/graybox/internal/wire"
)

// Spec declares one fault environment. The zero value is a fault-free run.
type Spec struct {
	Name string `json:"name"`
	// Mix weights the injected fault classes (zero = fault.DefaultMix when
	// Bursts > 0).
	Mix fault.Mix `json:"mix,omitempty"`
	// Bursts is how many fault bursts to plan; FaultsPerBurst bounds each
	// burst's size (live schedules draw 1..FaultsPerBurst, the simulator
	// injects exactly FaultsPerBurst).
	Bursts         int `json:"bursts,omitempty"`
	FaultsPerBurst int `json:"faults_per_burst,omitempty"`
	// DelayFactor > 1 slows every link by that factor — the gray-failure
	// "slow but alive" network. 0/1 = nominal delays.
	DelayFactor int64 `json:"delay_factor,omitempty"`
	// Partition plans an isolate/heal pair around mid-run; Asymmetric makes
	// the cut one-way (the isolated group's outbound traffic drops, inbound
	// still arrives). Live substrates cut the wire; the simulator
	// approximates the cut with channel-flush bursts (see CompileSim).
	Partition  bool `json:"partition,omitempty"`
	Asymmetric bool `json:"asymmetric,omitempty"`
	// Churn plans this many crash/recover cycles (single-node isolate/heal
	// pairs on the wire; state+flush bursts on the simulator).
	Churn int `json:"churn,omitempty"`
}

// SimPlan is a scenario compiled for the virtual-time simulator: injector
// burst times plus link-delay bounds.
type SimPlan struct {
	Mix            fault.Mix
	FaultTimes     []int64
	FaultsPerBurst int
	// MinDelay/MaxDelay are link-delay bounds in virtual ticks (0 = the
	// simulator's defaults).
	MinDelay, MaxDelay int64
}

// LivePlan is a scenario compiled for the wire substrates: a pre-drawn
// fault schedule plus the chaos proxy's hold window.
type LivePlan struct {
	Schedule *wire.FaultSchedule
	// MinDelay/MaxDelay are the chaos proxy's per-message hold bounds
	// (zero = the proxy's defaults).
	MinDelay, MaxDelay time.Duration
}

func (sc Spec) withDefaults() Spec {
	if sc.Bursts > 0 && sc.Mix.Loss+sc.Mix.Dup+sc.Mix.Corrupt+sc.Mix.State+sc.Mix.Flush == 0 {
		sc.Mix = fault.DefaultMix
	}
	if sc.Bursts > 0 && sc.FaultsPerBurst <= 0 {
		sc.FaultsPerBurst = 4
	}
	return sc
}

// CompileSim compiles the scenario for a simulator run of the given
// horizon. Wire-only shapes map onto the simulator's fault verbs: a
// partition becomes a channel-flush burst at the cut point (every in-flight
// message on the cut dies) and churn becomes state+flush bursts (the
// recovering process restarts with corrupted state). Burst times are drawn
// from a named stream of seed, so the plan is a pure function of
// (Spec, seed, horizon).
//
// Bursts land in the [0.5%, 2%] window of the horizon: harness runs treat
// the horizon as a drain bound (generous, so liveness obligations can
// settle), while the bounded MaxRequests workload is active only early —
// faults must land inside that active window for "entries after the last
// fault" to be a meaningful convergence signal.
func CompileSim(sc Spec, seed, horizon int64) SimPlan {
	sc = sc.withDefaults()
	if horizon < 10 {
		horizon = 10
	}
	p := SimPlan{Mix: sc.Mix, FaultsPerBurst: sc.FaultsPerBurst}
	if sc.DelayFactor > 1 {
		p.MinDelay, p.MaxDelay = 1, 5*sc.DelayFactor
	}
	rng := seeded.New(seeded.Derive(seed, "scenario/"+sc.Name+"/sim"))
	lo, hi := horizon/200, horizon/50
	if lo < 1 {
		lo = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	for i := 0; i < sc.Bursts; i++ {
		p.FaultTimes = append(p.FaultTimes, lo+rng.Int63n(hi-lo))
	}
	if sc.Partition {
		// The cut, as the simulator can express it: all in-flight messages
		// on the partition instant are lost.
		p.FaultTimes = append(p.FaultTimes, horizon/100)
		p.Mix = addWeight(p.Mix, fault.Mix{Flush: 2})
	}
	for i := 0; i < sc.Churn; i++ {
		p.FaultTimes = append(p.FaultTimes, lo+rng.Int63n(hi-lo))
	}
	if sc.Churn > 0 {
		p.Mix = addWeight(p.Mix, fault.Mix{State: 2, Flush: 1})
	}
	if len(p.FaultTimes) > 0 && p.FaultsPerBurst <= 0 {
		p.FaultsPerBurst = 4
	}
	if len(p.FaultTimes) > 0 && p.Mix.Loss+p.Mix.Dup+p.Mix.Corrupt+p.Mix.State+p.Mix.Flush == 0 {
		p.Mix = fault.DefaultMix
	}
	sort.Slice(p.FaultTimes, func(i, j int) bool { return p.FaultTimes[i] < p.FaultTimes[j] })
	return p
}

// CompileLive compiles the scenario for a wire run (goroutine runtime or
// live TCP) of n processes and the given duration. The fault schedule is a
// pure function of (Spec, seed, n, duration): same seed, same plan bytes.
func CompileLive(sc Spec, seed int64, n int, duration time.Duration) LivePlan {
	sc = sc.withDefaults()
	p := LivePlan{}
	if sc.DelayFactor > 1 {
		// Nominal chaos hold is 500µs..3ms; a gray network stretches it.
		p.MinDelay = 500 * time.Microsecond * time.Duration(sc.DelayFactor)
		p.MaxDelay = 3 * time.Millisecond * time.Duration(sc.DelayFactor)
	}
	if sc.Bursts > 0 || sc.Partition || sc.Churn > 0 {
		p.Schedule = wire.NewFaultSchedule(seed, wire.ScheduleConfig{
			N:           n,
			Duration:    duration,
			Bursts:      sc.Bursts,
			MaxPerBurst: sc.FaultsPerBurst,
			Mix:         sc.Mix,
			Partition:   sc.Partition,
			Asymmetric:  sc.Asymmetric,
			Churn:       sc.Churn,
		})
	}
	return p
}

func addWeight(m, extra fault.Mix) fault.Mix {
	m.Loss += extra.Loss
	m.Dup += extra.Dup
	m.Corrupt += extra.Corrupt
	m.State += extra.State
	m.Flush += extra.Flush
	return m
}

// Preset scenario names. Registered as a kind set so any future switch
// dispatching over presets must stay total as the matrix grows.
//
//gblint:kindset scenario-preset
const (
	// PresetNone is the fault-free baseline: common-case performance.
	PresetNone = "none"
	// PresetMixedBurst is the repo's historical chaos diet: bursts of the
	// default mix.
	PresetMixedBurst = "mixed-burst"
	// PresetGray is the slow-but-alive network: links 4× slower than
	// nominal with perturb-heavy (state-corruption) bursts — processes
	// stay up and reachable while their state and timing rot.
	PresetGray = "gray"
	// PresetGrayBurst pairs the gray network with heavier fault pressure;
	// the CI soak runs it under a bursty workload.
	PresetGrayBurst = "gray-burst"
	// PresetPartition is a clean symmetric cut with a light fault diet on
	// top.
	PresetPartition = "partition"
	// PresetPartitionAsym is the gray cut: the isolated group can hear
	// the cluster but not be heard.
	PresetPartitionAsym = "partition-asym"
	// PresetChurn crash/recovers individual nodes repeatedly.
	PresetChurn = "churn"
	// PresetClockskew rots logical clocks: corruption-dominant faults
	// that rewrite timestamps, the simulator-expressible form of skewed
	// clocks.
	PresetClockskew = "clockskew"
)

// presets is the named scenario matrix. Every E16 cell and every
// `gbload -scenario` run comes from this table.
var presets = map[string]func() Spec{
	PresetNone: func() Spec { return Spec{Name: PresetNone} },
	PresetMixedBurst: func() Spec {
		return Spec{Name: PresetMixedBurst, Bursts: 3, FaultsPerBurst: 4}
	},
	PresetGray: func() Spec {
		return Spec{Name: PresetGray, Bursts: 3, FaultsPerBurst: 3, DelayFactor: 4,
			Mix: fault.Mix{Loss: 1, Dup: 1, Corrupt: 2, State: 4, Flush: 1}}
	},
	PresetGrayBurst: func() Spec {
		return Spec{Name: PresetGrayBurst, Bursts: 5, FaultsPerBurst: 4, DelayFactor: 4,
			Mix: fault.Mix{Loss: 2, Dup: 1, Corrupt: 2, State: 4, Flush: 1}}
	},
	PresetPartition: func() Spec {
		return Spec{Name: PresetPartition, Bursts: 2, FaultsPerBurst: 2, Partition: true}
	},
	PresetPartitionAsym: func() Spec {
		return Spec{Name: PresetPartitionAsym, Bursts: 2, FaultsPerBurst: 2,
			Partition: true, Asymmetric: true}
	},
	PresetChurn: func() Spec {
		return Spec{Name: PresetChurn, Bursts: 1, FaultsPerBurst: 2, Churn: 3}
	},
	PresetClockskew: func() Spec {
		return Spec{Name: PresetClockskew, Bursts: 4, FaultsPerBurst: 3,
			Mix: fault.Mix{Corrupt: 5, State: 2}}
	},
}

// Preset returns the named scenario. The error lists the known names.
func Preset(name string) (Spec, error) {
	if f, ok := presets[name]; ok {
		return f(), nil
	}
	return Spec{}, fmt.Errorf("unknown scenario %q (known: %v)", name, Names())
}

// Names lists the preset scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(presets))
	//gblint:ignore determinism keys are sorted before returning
	for n := range presets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
