// Sim-to-real parity gate (E18): one seeded workload runs on the
// deterministic simulator AND the loopback live TCP cluster, both runs are
// projected onto a shared semantic snapshot (CS entries, requests, sampled
// ME1 violations, spec violations, convergence ticks), and the projections
// are diffed against each other and against the analytical twin's
// prediction under stated per-metric tolerances. Any divergence fails the
// gate — this is the regression net that lets substrates refactor
// aggressively: a change that shifts *semantics* (not timings) on one
// substrate breaks the build.
//
// The three share one client: workload.Driver runs the Client Spec on both
// substrates (think starts at release everywhere) and the twin models that
// cycle, so the gate holds on a contended workload as well as on a
// think-dominated one, at the same tolerances. Link delay is the same 1 to
// 5 ticks on all three: the simulator's and the twin's default, and the
// live chaos band. Safety metrics carry zero tolerance unconditionally: a
// clean run must be clean everywhere.
package harness

import (
	"fmt"
	"time"

	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/twin"
	"github.com/graybox-stabilization/graybox/internal/workload"
)

// ParityConfig parameterizes one E18 parity run.
type ParityConfig struct {
	// N is the cluster size (default 3).
	N int
	// Seed drives the workload draws, the sim schedule, and the live
	// chaos proxy.
	Seed int64
	// Delta is the W' timeout in ticks (default 25); the live cluster
	// reads ticks as LiveTick (1ms).
	Delta int64
	// Horizon is the run length in ticks; the live run lasts
	// Horizon×LiveTick (default 1500).
	Horizon int64
	// Spec shapes the traffic on both substrates. Default: think uniform
	// on {40..70}, hold 1 (think-dominated at the default N).
	Spec *workload.Spec
}

func (c ParityConfig) withDefaults() ParityConfig {
	if c.N <= 0 {
		c.N = 3
	}
	if c.Delta == 0 {
		c.Delta = 25
	}
	if c.Horizon <= 0 {
		c.Horizon = 2000
	}
	if c.Spec == nil {
		spec := workload.UniformSpec(40, 70, 1)
		c.Spec = &spec
	}
	return c
}

// ParityResult carries the three projections and their pairwise diffs.
type ParityResult struct {
	Sim  RunResult
	Live LiveResult
	Pred twin.Prediction
	// SimVsLive, SimVsTwin, LiveVsTwin are the pairwise semantic diffs.
	SimVsLive, SimVsTwin, LiveVsTwin []obs.MetricDiff
	// OK reports every diff of every pair inside its tolerance.
	OK bool
}

// Parity tolerances: counts get a relative band wide enough for the
// substrates' residual timing differences (real sockets and timers against
// virtual ticks); safety and convergence metrics get zero — a fault-free
// run must be violation-free and convergence-free on every substrate,
// exactly.
const (
	parityCountTol = 0.20
	parityExactTol = 0.0
)

// parityTols maps each semantic metric to its gate tolerance.
func parityTols() map[string]float64 {
	return map[string]float64{
		"parity_entries":     parityCountTol,
		"parity_requests":    parityCountTol,
		"parity_me1_samples": parityExactTol,
		"parity_violations":  parityExactTol,
		"parity_conv_ticks":  parityExactTol,
	}
}

// RunParity executes the seeded workload on sim and live cluster, predicts
// it with the twin, and diffs the three semantic projections.
func RunParity(cfg ParityConfig) (ParityResult, error) {
	cfg = cfg.withDefaults()
	spec := *cfg.Spec

	simRes := Run(RunConfig{
		Algo: RA, N: cfg.N, Seed: cfg.Seed, Delta: cfg.Delta,
		Monitor:     true,
		Workload:    workload.NewGen(spec, cfg.Seed+100, cfg.N),
		Horizon:     cfg.Horizon,
		MaxRequests: 1 << 20,
	})

	// The chaos band is the simulator's default link delay, tick for tick.
	liveRes, err := RunLive(LiveConfig{
		N: cfg.N, Seed: cfg.Seed,
		Duration:      time.Duration(cfg.Horizon) * LiveTick,
		Delta:         time.Duration(cfg.Delta) * LiveTick,
		ChaosMinDelay: 1 * LiveTick,
		ChaosMaxDelay: 5 * LiveTick,
		Workload:      &spec,
	})
	if err != nil {
		return ParityResult{Sim: simRes}, err
	}

	pred := twin.Predict(twin.SpecParams(twin.Params{
		N: cfg.N, Delta: cfg.Delta, Horizon: cfg.Horizon,
	}, spec))

	res := parityEval(simRes, liveRes, pred)
	return res, nil
}

// parityEval projects the three results onto the semantic snapshot and
// diffs them pairwise. Split from RunParity so the negative test can
// perturb one projection and watch the gate fail without a second live
// run.
func parityEval(simRes RunResult, liveRes LiveResult, pred twin.Prediction) ParityResult {
	res := ParityResult{Sim: simRes, Live: liveRes, Pred: pred}
	tols := parityTols()
	sim := paritySnapshot(simRes)
	live := liveParitySnapshot(liveRes)
	tw := twinParitySnapshot(pred)
	res.SimVsLive = obs.DiffSnapshots(sim, live, tols)
	res.SimVsTwin = obs.DiffSnapshots(sim, tw, tols)
	res.LiveVsTwin = obs.DiffSnapshots(live, tw, tols)
	res.OK = obs.AllWithin(res.SimVsLive) && obs.AllWithin(res.SimVsTwin) &&
		obs.AllWithin(res.LiveVsTwin)
	return res
}

// paritySnapshot projects a sim run onto the semantic parity metrics. ME1
// violations surface in the monitor summary under the "invariant" operator
// (ME1 is the one invariant in the suite).
func paritySnapshot(r RunResult) *obs.Snapshot {
	s := obs.NewSnapshot()
	s.Counters["parity_entries"] = int64(r.Entries)
	s.Counters["parity_requests"] = int64(r.Requests)
	s.Counters["parity_me1_samples"] = int64(r.ViolationSummary["invariant"].Count)
	s.Counters["parity_violations"] = int64(r.Violations)
	s.Gauges["parity_conv_ticks"] = r.ConvergenceTime
	return s
}

// liveParitySnapshot projects a live run. The live safety monitor samples
// ME1 only, so sampled violations stand in for both safety metrics; a
// never-converged run projects its -1 sentinel, which diverges from any
// clean projection — exactly the failure the gate wants to catch.
func liveParitySnapshot(r LiveResult) *obs.Snapshot {
	s := obs.NewSnapshot()
	s.Counters["parity_entries"] = int64(r.Entries)
	s.Counters["parity_requests"] = int64(r.Requests)
	s.Counters["parity_me1_samples"] = int64(r.SafetyViolations)
	s.Counters["parity_violations"] = int64(r.SafetyViolations)
	s.Gauges["parity_conv_ticks"] = r.ConvergenceMS // 1 tick = 1ms live
	return s
}

// twinParitySnapshot projects the analytical prediction: expected counts,
// and a clean (zero) safety/convergence picture — the model predicts the
// fault-free run.
func twinParitySnapshot(p twin.Prediction) *obs.Snapshot {
	s := obs.NewSnapshot()
	s.Counters["parity_entries"] = int64(p.Entries + 0.5)
	s.Counters["parity_requests"] = int64(p.Requests + 0.5)
	s.Counters["parity_me1_samples"] = 0
	s.Counters["parity_violations"] = 0
	s.Gauges["parity_conv_ticks"] = 0
	return s
}

// parityRow is one E18 workload.
type parityRow struct {
	name string
	cfg  ParityConfig
}

// parityRows are the workloads E18 gates: the think-dominated default, and
// a contended one (utilization about a half at n=5) where a client that
// started its think anywhere but at release would be off by tens of percent.
func parityRows(scale Scale) []parityRow {
	horizon := int64(2000)
	if scale == Full {
		horizon = 4000
	}
	contended := workload.UniformSpec(10, 30, 1)
	return []parityRow{
		{"think-dominated", ParityConfig{Seed: 11, Horizon: horizon}},
		{"contended", ParityConfig{N: 5, Seed: 11, Horizon: horizon, Spec: &contended}},
	}
}

// ParityGate runs E18 at the given scale and renders the gate table. The
// boolean is the gate verdict: false means some pair of substrates (or a
// substrate and the twin) diverged beyond tolerance on some workload.
func ParityGate(scale Scale) (*Table, bool) {
	rows := parityRows(scale)
	first := rows[0].cfg.withDefaults()
	t := &Table{
		Title: fmt.Sprintf("E18: sim-to-real parity gate, δ=%d, horizon=%d ticks (live: %s)",
			first.Delta, first.Horizon, time.Duration(first.Horizon)*LiveTick),
		Header: []string{"workload", "pair", "metric", "a", "b", "rel %", "tol %", "verdict"},
	}
	ok := true
	var boxes []string
	for _, row := range rows {
		name := fmt.Sprintf("%s n=%d", row.name, row.cfg.withDefaults().N)
		res, err := RunParity(row.cfg)
		if err != nil {
			t.AddRow(name, "live", "error: "+err.Error(), "-", "-", "-", "-", "-")
			return t, false
		}
		ok = ok && res.OK
		boxes = append(boxes, fmt.Sprintf("%s live run: %s", name, res.Live.Box()))
		for _, pair := range []struct {
			name  string
			diffs []obs.MetricDiff
		}{
			{"sim vs live", res.SimVsLive},
			{"sim vs twin", res.SimVsTwin},
			{"live vs twin", res.LiveVsTwin},
		} {
			for _, d := range pair.diffs {
				verdict := "ok"
				if !d.Within {
					verdict = "DIVERGED"
				}
				t.AddRow(name, pair.name, d.Name,
					fmt.Sprint(d.A), fmt.Sprint(d.B),
					fmt.Sprintf("%.1f", 100*d.Rel), fmt.Sprintf("%.1f", 100*d.Tol),
					verdict)
			}
		}
	}
	t.Notes = append(t.Notes,
		"each seeded workload runs on sim (virtual ticks) and live TCP loopback (1 tick = 1ms) under the same client (workload.Driver) and the same 1 to 5 tick link delay, beside the twin's closed-form prediction",
		"counts gate at ±20%; ME1 samples, violations, and convergence ticks gate exactly — a clean run must be clean on every substrate",
	)
	t.Notes = append(t.Notes, boxes...)
	t.Notes = append(t.Notes, fmt.Sprintf("gate verdict: ok=%v", ok))
	return t, ok
}
