package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/fault"
	"github.com/graybox-stabilization/graybox/internal/lspec"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/sim"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// monitoredRun mirrors RunObserved but hands back the monitors themselves,
// so the parity tests can compare the raw violation streams — not just the
// aggregates — between the incremental and full-snapshot observer paths.
// It also returns the final obs snapshot rendered as JSON, which is what
// -metrics-json writes.
func monitoredRun(cfg RunConfig, full bool) (*lspec.Monitors, RunResult, []byte) {
	cfg = cfg.withDefaults()
	o := obs.New(obs.Options{})
	simCfg := sim.Config{
		N:           cfg.N,
		Seed:        cfg.Seed,
		NewNode:     cfg.Algo.Factory(),
		Workload:    true,
		MaxRequests: cfg.MaxRequests,
		Obs:         o,
	}
	if cfg.DeadlockFault {
		simCfg.ThinkMin, simCfg.ThinkMax = cfg.Horizon+1, cfg.Horizon+2
	}
	if cfg.Delta >= 0 {
		delta := cfg.Delta
		simCfg.NewWrapper = func(int) wrapper.Level2 { return wrapper.NewTimed(delta) }
	}
	s := sim.New(simCfg)

	mon := lspec.New(cfg.N)
	mon.Instrument(o)
	observe := mon.AsObserver()
	if full {
		observe = mon.AsFullSnapshotObserver()
	}
	s.SetObserver(observe)

	if cfg.DeadlockFault {
		const reqAt = 10
		s.At(reqAt, func(s *sim.Sim) {
			for i := 0; i < s.N(); i++ {
				s.Request(i)
			}
		})
		s.At(reqAt+1, func(s *sim.Sim) { fault.DropAllInFlight(s) })
	}
	if len(cfg.FaultTimes) > 0 && cfg.FaultsPerBurst > 0 {
		in := fault.NewInjector(cfg.FaultSeed, cfg.Mix)
		in.Schedule(s, cfg.FaultTimes, cfg.FaultsPerBurst)
	}

	s.Run(cfg.Horizon)
	observe(s) // RunObserved's extra look at the horizon

	conv := o.Convergence()
	snap := o.Registry().Snapshot()
	res := RunResult{
		LastFault:            conv.LastFault(),
		LastViolation:        conv.LastViolation(),
		ConvergenceTime:      conv.Time(),
		FirstEntryAfterFault: conv.FirstProgressAfterFault(),
		Entries:              int(snap.Counter("sim_cs_entries_total")),
		EntriesAfterFault:    int(conv.ProgressAfterFault()),
		Requests:             int(snap.Counter("sim_requests_total")),
		ProgramMsgs:          int(snap.Counter("sim_msgs_program_total")),
		WrapperMsgs:          int(snap.Counter("sim_msgs_wrapper_total")),
		Violations:           int(conv.Violations()),
		ViolationSummary:     mon.Summary(),
		Starved:              mon.StarvedProcesses(),
		Obs:                  snap,
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		panic(err)
	}
	return mon, res, buf.Bytes()
}

// streamString renders a violation stream for byte-for-byte comparison.
func streamString(vs []lspec.TimedViolation) string {
	var b strings.Builder
	for _, v := range vs {
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func assertMonitorParity(t *testing.T, name string, cfg RunConfig) {
	t.Helper()
	incMon, incRes, incJSON := monitoredRun(cfg, false)
	fullMon, fullRes, fullJSON := monitoredRun(cfg, true)

	if got, want := streamString(incMon.Violations()), streamString(fullMon.Violations()); got != want {
		t.Errorf("%s: violation streams differ\nincremental:\n%s\nfull:\n%s", name, got, want)
	}
	if got, want := streamString(incMon.FCFSViolations()), streamString(fullMon.FCFSViolations()); got != want {
		t.Errorf("%s: FCFS violation streams differ\nincremental:\n%s\nfull:\n%s", name, got, want)
	}
	if incRes.ConvergenceTime != fullRes.ConvergenceTime {
		t.Errorf("%s: ConvergenceTime = %d incremental, %d full",
			name, incRes.ConvergenceTime, fullRes.ConvergenceTime)
	}
	if incRes.LastViolation != fullRes.LastViolation {
		t.Errorf("%s: LastViolation = %d incremental, %d full",
			name, incRes.LastViolation, fullRes.LastViolation)
	}
	if incRes.Violations != fullRes.Violations {
		t.Errorf("%s: Violations = %d incremental, %d full",
			name, incRes.Violations, fullRes.Violations)
	}
	if !reflect.DeepEqual(incRes.Starved, fullRes.Starved) {
		t.Errorf("%s: Starved = %v incremental, %v full", name, incRes.Starved, fullRes.Starved)
	}
	if !reflect.DeepEqual(incMon.StuckEaters(), fullMon.StuckEaters()) {
		t.Errorf("%s: StuckEaters = %v incremental, %v full",
			name, incMon.StuckEaters(), fullMon.StuckEaters())
	}
	if !reflect.DeepEqual(incRes.ViolationSummary, fullRes.ViolationSummary) {
		t.Errorf("%s: ViolationSummary = %v incremental, %v full",
			name, incRes.ViolationSummary, fullRes.ViolationSummary)
	}
	if incMon.OpenReplyObligations() != fullMon.OpenReplyObligations() {
		t.Errorf("%s: OpenReplyObligations = %d incremental, %d full",
			name, incMon.OpenReplyObligations(), fullMon.OpenReplyObligations())
	}
	if !bytes.Equal(incJSON, fullJSON) {
		t.Errorf("%s: obs snapshot JSON differs between incremental and full paths", name)
	}
}

// TestMonitorParityConfigs proves the incremental (dirty-tracked) observer
// produces measurements identical to the full-rebuild reference observer on
// the E2 stabilization and E4 deadlock configurations: same violation
// streams (times and operators), same convergence times, same starvation
// verdicts, and byte-identical metrics JSON.
func TestMonitorParityConfigs(t *testing.T) {
	configs := map[string]RunConfig{
		"E2-stabilization": {
			Algo: RA, N: 4, Seed: 3, FaultSeed: 1003, Delta: 5,
			FaultTimes: []int64{200, 300, 400}, FaultsPerBurst: 12,
			MaxRequests: 40, Horizon: 40000, Monitor: true,
		},
		"E2-lamport": {
			Algo: Lamport, N: 4, Seed: 11, FaultSeed: 1011, Delta: 5,
			FaultTimes: []int64{200, 300, 400}, FaultsPerBurst: 12,
			MaxRequests: 40, Horizon: 40000, Monitor: true,
		},
		"E2-unwrapped": {
			Algo: RA, N: 4, Seed: 7, FaultSeed: 1007, Delta: NoWrapper,
			FaultTimes: []int64{200, 300, 400}, FaultsPerBurst: 12,
			MaxRequests: 40, Horizon: 40000, Monitor: true,
		},
		"E4-deadlock": {
			Algo: RA, N: 4, Seed: 5, Delta: 5,
			DeadlockFault: true, Horizon: 30000, Monitor: true,
		},
	}
	for name, cfg := range configs {
		assertMonitorParity(t, name, cfg)
	}
}

// TestMonitorParityRandomSeeds sweeps randomized seeds and fault schedules
// through both observer paths, alternating the two protocols, with every
// third run unwrapped (its violations persist through quiescence) and half
// the runs on a mix that is mostly state perturbation (the fault class that
// writes nodes behind the event loop). The generator itself is seeded, so
// the sweep is reproducible; it exists to catch dirty-tracking bugs that
// only a fault pattern nobody hand-picked would expose. A simulator mutation
// site that forgets dirtyNode shows up here as a missing verdict.
func TestMonitorParityRandomSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized sweep skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(20010701)) // DSN 2001
	for i := 0; i < 12; i++ {
		cfg := RunConfig{
			Algo:      []Algo{RA, Lamport}[i%2],
			N:         3 + rng.Intn(3),
			Seed:      rng.Int63n(1 << 20),
			FaultSeed: rng.Int63n(1 << 20),
			Delta:     int64(rng.Intn(3) * 5),
			FaultTimes: []int64{
				100 + rng.Int63n(200),
				400 + rng.Int63n(200),
			},
			FaultsPerBurst: 4 + rng.Intn(12),
			MaxRequests:    20,
			Horizon:        20000,
			Monitor:        true,
		}
		if i%3 == 2 {
			cfg.Delta = NoWrapper
		}
		if i%4 >= 2 {
			cfg.Mix = fault.Mix{Loss: 1, Corrupt: 1, State: 6}
		}
		assertMonitorParity(t, fmt.Sprintf("%d-%s", i, cfg.Algo), cfg)
	}
}
