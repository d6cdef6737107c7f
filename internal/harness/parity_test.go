package harness

import (
	"strings"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/lspec"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/twin"
)

// cleanParityInputs builds a sim result, live result, and prediction that
// agree exactly — the fixture the negative tests perturb.
func cleanParityInputs() (RunResult, LiveResult, twin.Prediction) {
	simRes := RunResult{
		Entries: 100, Requests: 102,
		ViolationSummary: map[string]lspec.Stat{},
	}
	liveRes := LiveResult{Entries: 100, Requests: 102, Converged: true}
	pred := twin.Prediction{Entries: 100, Requests: 102}
	return simRes, liveRes, pred
}

// TestParityEvalClean checks that agreeing projections pass the gate.
func TestParityEvalClean(t *testing.T) {
	simRes, liveRes, pred := cleanParityInputs()
	res := parityEval(simRes, liveRes, pred)
	if !res.OK {
		t.Fatalf("clean projections should pass:\nsim vs live:\n%ssim vs twin:\n%slive vs twin:\n%s",
			obs.FormatDiffs(res.SimVsLive), obs.FormatDiffs(res.SimVsTwin), obs.FormatDiffs(res.LiveVsTwin))
	}
}

// TestParityEvalNegative is the ISSUE's demanded negative test: perturbing
// a semantic metric beyond its tolerance must fail the gate.
func TestParityEvalNegative(t *testing.T) {
	t.Run("entries beyond 20%", func(t *testing.T) {
		simRes, liveRes, pred := cleanParityInputs()
		liveRes.Entries = 160 // 37% off the sim's 100
		res := parityEval(simRes, liveRes, pred)
		if res.OK {
			t.Fatal("perturbed entries should fail the gate")
		}
		if !diverged(res.SimVsLive, "parity_entries") {
			t.Errorf("sim-vs-live entries should be the diverged metric:\n%s",
				obs.FormatDiffs(res.SimVsLive))
		}
		// The untouched pair still agrees.
		if !obs.AllWithin(res.SimVsTwin) {
			t.Errorf("sim-vs-twin should stay within tolerance:\n%s",
				obs.FormatDiffs(res.SimVsTwin))
		}
	})
	t.Run("entries within 20% passes", func(t *testing.T) {
		simRes, liveRes, pred := cleanParityInputs()
		liveRes.Entries = 110
		liveRes.Requests = 112
		if res := parityEval(simRes, liveRes, pred); !res.OK {
			t.Fatalf("10%% drift should pass:\n%s", obs.FormatDiffs(res.SimVsLive))
		}
	})
	t.Run("safety violation is zero-tolerance", func(t *testing.T) {
		simRes, liveRes, pred := cleanParityInputs()
		liveRes.SafetyViolations = 1
		res := parityEval(simRes, liveRes, pred)
		if res.OK {
			t.Fatal("one live ME1 violation should fail the gate")
		}
		if !diverged(res.SimVsLive, "parity_me1_samples") {
			t.Errorf("me1 samples should be the diverged metric:\n%s",
				obs.FormatDiffs(res.SimVsLive))
		}
	})
	t.Run("convergence drift is zero-tolerance", func(t *testing.T) {
		simRes, liveRes, pred := cleanParityInputs()
		simRes.ConvergenceTime = 40
		res := parityEval(simRes, liveRes, pred)
		if res.OK {
			t.Fatal("sim-only convergence time should fail the gate")
		}
	})
	t.Run("never-converged live run fails", func(t *testing.T) {
		simRes, liveRes, pred := cleanParityInputs()
		liveRes.Converged = false
		liveRes.ConvergenceMS = -1
		if res := parityEval(simRes, liveRes, pred); res.OK {
			t.Fatal("a stalled live cluster should fail the gate")
		}
	})
}

// TestRunParity is the E18 positive gate: each seeded workload on sim and
// loopback live cluster, plus the twin, all within tolerance. It boots real
// TCP clusters for seconds, so -short skips it.
func TestRunParity(t *testing.T) {
	if testing.Short() {
		t.Skip("live loopback cluster run; skipped under -short")
	}
	for _, row := range parityRows(Quick) {
		res, err := RunParity(row.cfg)
		if err != nil {
			t.Fatalf("%s: RunParity: %v", row.name, err)
		}
		report := "sim vs live:\n" + obs.FormatDiffs(res.SimVsLive) +
			"sim vs twin:\n" + obs.FormatDiffs(res.SimVsTwin) +
			"live vs twin:\n" + obs.FormatDiffs(res.LiveVsTwin)
		if !res.OK {
			t.Fatalf("%s: parity gate diverged:\n%s", row.name, report)
		}
		if res.Sim.Entries == 0 || res.Live.Entries == 0 {
			t.Fatalf("%s: degenerate parity run (sim=%d live=%d entries):\n%s",
				row.name, res.Sim.Entries, res.Live.Entries, report)
		}
	}
}

// TestParityGateTable checks the E18 renderer marks verdicts per row.
func TestParityGateTable(t *testing.T) {
	if testing.Short() {
		t.Skip("live loopback cluster run; skipped under -short")
	}
	tbl, ok := ParityGate(Quick)
	out := tbl.String()
	if !strings.Contains(out, "parity_entries") || !strings.Contains(out, "sim vs live") || !strings.Contains(out, "contended") {
		t.Errorf("gate table missing rows:\n%s", out)
	}
	if !ok && !strings.Contains(out, "DIVERGED") {
		t.Errorf("failed gate must show a DIVERGED row:\n%s", out)
	}
	if !ok {
		t.Fatalf("E18 gate diverged:\n%s", out)
	}
}

// diverged reports whether the named metric is out of tolerance in diffs.
func diverged(diffs []obs.MetricDiff, name string) bool {
	for _, d := range diffs {
		if d.Name == name {
			return !d.Within
		}
	}
	return false
}
