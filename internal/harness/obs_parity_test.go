package harness

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/fault"
	"github.com/graybox-stabilization/graybox/internal/lspec"
	"github.com/graybox-stabilization/graybox/internal/sim"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// legacyRun replays cfg without observability and computes the measurements
// the way the harness did before obs existed: the fault window from the
// configuration, entries-after-fault by a post-hoc recount over sim.Metrics,
// violations from the monitors. It is the independent baseline the
// obs-derived Run must reproduce exactly.
func legacyRun(cfg RunConfig) RunResult {
	cfg = cfg.withDefaults()
	simCfg := sim.Config{
		N:           cfg.N,
		Seed:        cfg.Seed,
		NewNode:     cfg.Algo.Factory(),
		Workload:    true,
		MaxRequests: cfg.MaxRequests,
	}
	if cfg.DeadlockFault {
		simCfg.ThinkMin, simCfg.ThinkMax = cfg.Horizon+1, cfg.Horizon+2
	}
	if cfg.Delta >= 0 {
		delta := cfg.Delta
		simCfg.NewWrapper = func(int) wrapper.Level2 { return wrapper.NewTimed(delta) }
	}
	s := sim.New(simCfg)

	var mon *lspec.Monitors
	if cfg.Monitor {
		mon = lspec.New(cfg.N)
		s.SetObserver(mon.AsObserver())
	}

	lastFault := int64(-1)
	if cfg.DeadlockFault {
		const reqAt = 10
		s.At(reqAt, func(s *sim.Sim) {
			for i := 0; i < s.N(); i++ {
				s.Request(i)
			}
		})
		s.At(reqAt+1, func(s *sim.Sim) { fault.DropAllInFlight(s) })
		lastFault = reqAt + 1
	}
	if len(cfg.FaultTimes) > 0 && cfg.FaultsPerBurst > 0 {
		in := fault.NewInjector(cfg.FaultSeed, cfg.Mix)
		in.Schedule(s, cfg.FaultTimes, cfg.FaultsPerBurst)
		for _, t := range cfg.FaultTimes {
			if t > lastFault {
				lastFault = t
			}
		}
	}

	s.Run(cfg.Horizon)

	m := s.Metrics()
	res := RunResult{
		LastFault:            lastFault,
		LastViolation:        -1,
		FirstEntryAfterFault: -1,
		Entries:              len(m.Entries),
		Requests:             m.Requests,
		ProgramMsgs:          m.ProgramMsgs,
		WrapperMsgs:          m.WrapperMsgs,
	}
	for _, e := range m.Entries {
		if e.Time > lastFault {
			res.EntriesAfterFault++
			if res.FirstEntryAfterFault < 0 {
				res.FirstEntryAfterFault = e.Time
			}
		}
	}
	if mon != nil {
		res.LastViolation = mon.LastViolationTime()
		res.Violations = len(mon.Violations()) + len(mon.FCFSViolations())
		if res.LastViolation > lastFault {
			res.ConvergenceTime = res.LastViolation - lastFault
		}
	}
	return res
}

// TestObsMatchesLegacyComputation checks the acceptance criterion that the
// telemetry-derived measurements agree with the pre-obs harness bookkeeping
// on the E2 (stabilization under fault bursts) and E4 (deadlock recovery)
// configurations.
func TestObsMatchesLegacyComputation(t *testing.T) {
	configs := map[string]RunConfig{
		"E2-stabilization": {
			Algo: RA, N: 4, Seed: 3, FaultSeed: 1003, Delta: 5,
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
		want := legacyRun(cfg)
		got := Run(cfg)
		if got.LastFault != want.LastFault {
			t.Errorf("%s: LastFault = %d, legacy %d", name, got.LastFault, want.LastFault)
		}
		if got.LastViolation != want.LastViolation {
			t.Errorf("%s: LastViolation = %d, legacy %d", name, got.LastViolation, want.LastViolation)
		}
		if got.ConvergenceTime != want.ConvergenceTime {
			t.Errorf("%s: ConvergenceTime = %d, legacy %d", name, got.ConvergenceTime, want.ConvergenceTime)
		}
		if got.FirstEntryAfterFault != want.FirstEntryAfterFault {
			t.Errorf("%s: FirstEntryAfterFault = %d, legacy %d", name, got.FirstEntryAfterFault, want.FirstEntryAfterFault)
		}
		if got.EntriesAfterFault != want.EntriesAfterFault {
			t.Errorf("%s: EntriesAfterFault = %d, legacy %d", name, got.EntriesAfterFault, want.EntriesAfterFault)
		}
		if got.Entries != want.Entries || got.Requests != want.Requests {
			t.Errorf("%s: Entries/Requests = %d/%d, legacy %d/%d",
				name, got.Entries, got.Requests, want.Entries, want.Requests)
		}
		if got.ProgramMsgs != want.ProgramMsgs || got.WrapperMsgs != want.WrapperMsgs {
			t.Errorf("%s: ProgramMsgs/WrapperMsgs = %d/%d, legacy %d/%d",
				name, got.ProgramMsgs, got.WrapperMsgs, want.ProgramMsgs, want.WrapperMsgs)
		}
		if got.Violations != want.Violations {
			t.Errorf("%s: Violations = %d, legacy %d", name, got.Violations, want.Violations)
		}
		if got.Obs == nil || got.Obs.Counter("sim_cs_entries_total") != int64(got.Entries) {
			t.Errorf("%s: RunResult.Obs snapshot missing or inconsistent", name)
		}
	}
}
