package harness

import (
	"reflect"
	goruntime "runtime"
	"testing"
)

// TestParMapOrder checks results land at their own indices and that no
// worker outlives the call.
func TestParMapOrder(t *testing.T) {
	base := goruntime.NumGoroutine()
	got := ParMap(100, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	if out := ParMap(0, func(i int) int { return i }); len(out) != 0 {
		t.Fatalf("ParMap(0) returned %d results", len(out))
	}
	eventually(t, "the goroutine count is back to its baseline", func() bool {
		return goruntime.NumGoroutine() <= base
	})
}

// TestParMapDeterministicSweep runs an E2-style seeded sweep through ParMap
// and sequentially and requires identical results: every run is a pure
// function of its configuration, so parallelism must not change any
// measurement. Run under -race (make test-race) this also proves the sweep
// pattern used by the experiment harness is data-race free.
func TestParMapDeterministicSweep(t *testing.T) {
	cfg := func(seed int) RunConfig {
		return RunConfig{
			Algo: RA, N: 3,
			Seed: int64(seed), FaultSeed: int64(seed) + 1000,
			Delta:      5,
			FaultTimes: []int64{200}, FaultsPerBurst: 6,
			MaxRequests: 8,
			Horizon:     6000,
			Monitor:     true,
		}
	}
	const runs = 8
	par := ParMap(runs, func(i int) RunResult { return Run(cfg(i)) })
	seq := make([]RunResult, runs)
	for i := range seq {
		seq[i] = Run(cfg(i))
	}
	for i := range seq {
		p, s := par[i], seq[i]
		// Obs snapshots are pointer-laden; compare the JSON-visible maps.
		if !reflect.DeepEqual(p.Obs, s.Obs) {
			t.Errorf("seed %d: parallel obs snapshot differs from sequential", i)
		}
		p.Obs, s.Obs = nil, nil
		if !reflect.DeepEqual(p, s) {
			t.Errorf("seed %d: parallel result %+v differs from sequential %+v", i, p, s)
		}
	}
}
