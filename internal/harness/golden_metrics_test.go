package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// checkGolden compares got against testdata/<name>, rewriting the file
// when -update is set. Byte identity is the point: these goldens pin the
// full metrics output of reference configurations, so any refactor that
// perturbs event order, instrument wiring, or snapshot encoding fails
// loudly instead of silently shifting the paper's measurements.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/harness -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (rerun with -update only if the change is intended)\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// e2Config is one cell of the E2 stabilization experiment: RA with the
// timed wrapper under three mixed fault bursts.
func e2Config() RunConfig {
	return RunConfig{
		Algo: RA, N: 4,
		Seed: 1, FaultSeed: 1001,
		Delta:      5,
		FaultTimes: []int64{200, 300, 400}, FaultsPerBurst: 12,
		MaxRequests: 40,
		Horizon:     40000,
		Monitor:     true,
	}
}

// e4Config is one cell of the E4 deadlock experiment: all in-flight
// requests dropped, recovery owed to the timed wrapper.
func e4Config() RunConfig {
	return RunConfig{
		Algo: RA, N: 4,
		Seed:          1,
		Delta:         10,
		DeadlockFault: true,
		Horizon:       30000,
	}
}

// TestGoldenMetricsE2 pins the complete metrics JSON of the E2 reference
// run.
func TestGoldenMetricsE2(t *testing.T) {
	r := Run(e2Config())
	var buf bytes.Buffer
	if err := r.Obs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e2_metrics.json", buf.Bytes())
}

// TestGoldenMetricsE4 pins the complete metrics JSON of the E4 reference
// run.
func TestGoldenMetricsE4(t *testing.T) {
	r := Run(e4Config())
	var buf bytes.Buffer
	if err := r.Obs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e4_metrics.json", buf.Bytes())
}

// TestGoldenFig1 pins the rendered Figure-1 table: the paper's
// counterexample, answer for answer.
func TestGoldenFig1(t *testing.T) {
	tab, _ := Fig1()
	checkGolden(t, "fig1_table.txt", []byte(tab.String()))
}

// TestGoldenRunsAreReproducible re-runs the E2 configuration and demands
// byte-identical JSON — the determinism contract at the telemetry level,
// independent of the checked-in goldens.
func TestGoldenRunsAreReproducible(t *testing.T) {
	var a, b bytes.Buffer
	if err := Run(e2Config()).Obs.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := Run(e2Config()).Obs.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("identical configs produced different metrics JSON:\n--- first ---\n%s\n--- second ---\n%s", a.String(), b.String())
	}
}
