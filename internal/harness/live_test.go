package harness

import (
	"os"
	goruntime "runtime"
	"testing"
	"time"

	"github.com/graybox-stabilization/graybox/internal/fault"
	"github.com/graybox-stabilization/graybox/internal/wire"
)

// A think or chaos-delay max below its min becomes the default max, raised
// to the min when the default lies below it.
func TestLiveConfigBoundDefaults(t *testing.T) {
	const us, ms = time.Microsecond, time.Millisecond
	type bounds [2]time.Duration
	for _, c := range []struct {
		cfg          LiveConfig
		think, chaos bounds
	}{
		{LiveConfig{}, bounds{DefaultThinkMin, DefaultThinkMax}, bounds{500 * us, 3 * ms}},
		{LiveConfig{ThinkMin: ms, ChaosMinDelay: ms}, bounds{ms, DefaultThinkMax}, bounds{ms, 3 * ms}},
		{LiveConfig{ThinkMin: ms, ThinkMax: 2 * ms, ChaosMinDelay: us, ChaosMaxDelay: us}, bounds{ms, 2 * ms}, bounds{us, us}},
		{LiveConfig{ThinkMin: 20 * ms, ChaosMinDelay: 5 * ms}, bounds{20 * ms, 20 * ms}, bounds{5 * ms, 5 * ms}},
		{LiveConfig{ThinkMin: 20 * ms, ThinkMax: 10 * ms, ChaosMinDelay: 5 * ms, ChaosMaxDelay: 4 * ms},
			bounds{20 * ms, 20 * ms}, bounds{5 * ms, 5 * ms}},
	} {
		got := c.cfg.withDefaults()
		if think := (bounds{got.ThinkMin, got.ThinkMax}); think != c.think {
			t.Errorf("think [%v, %v] defaults to %v, want %v", c.cfg.ThinkMin, c.cfg.ThinkMax, think, c.think)
		}
		if chaos := (bounds{got.ChaosMinDelay, got.ChaosMaxDelay}); chaos != c.chaos {
			t.Errorf("chaos delay [%v, %v] defaults to %v, want %v", c.cfg.ChaosMinDelay, c.cfg.ChaosMaxDelay, chaos, c.chaos)
		}
	}
}

// A fault-free loopback cluster makes progress with zero safety
// violations.
func TestRunLiveCleanRun(t *testing.T) {
	res, err := RunLive(LiveConfig{N: 3, Seed: 1, Duration: 900 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries == 0 {
		t.Fatal("no CS entries in a clean run")
	}
	if res.SafetyViolations != 0 {
		t.Errorf("%d safety violations in a fault-free run", res.SafetyViolations)
	}
	if !res.Converged || res.ConvergenceMS != 0 {
		t.Errorf("clean run: converged=%v convergence=%dms, want true/0", res.Converged, res.ConvergenceMS)
	}
	if res.FaultsApplied != 0 {
		t.Errorf("FaultsApplied = %d without a schedule", res.FaultsApplied)
	}
	if res.Snapshot == nil || res.Snapshot.Counter("runtime_entries_total") == 0 {
		t.Error("snapshot missing runtime entry counter")
	}
}

// The partition/heal integration test of the issue: isolate one node, heal,
// and assert the wrapped cluster re-converges to Lspec-conformant behaviour
// (progress, no post-convergence violations) within the W' timeout bound.
func TestRunLivePartitionHealReconverges(t *testing.T) {
	const (
		dur   = 2500 * time.Millisecond
		delta = 25 * time.Millisecond
	)
	base, fds := goruntime.NumGoroutine(), openFDs()
	sched := &wire.FaultSchedule{
		Seed: 5,
		Events: []wire.FaultEvent{
			{AtMS: 500, Verb: "partition", Group: []int{0}},
			{AtMS: 1100, Verb: "heal"},
		},
	}
	res, err := RunLive(LiveConfig{
		N: 3, Seed: 5, Duration: dur, Delta: delta, Schedule: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsApplied != 2 {
		t.Errorf("FaultsApplied = %d, want 2 (partition + heal)", res.FaultsApplied)
	}
	if !res.Converged {
		t.Fatalf("cluster did not re-converge after heal: %+v", res)
	}
	if res.SafetyViolationsAfterConvergence != 0 {
		t.Errorf("%d safety violations after convergence", res.SafetyViolationsAfterConvergence)
	}
	if res.ConvergenceMS < 0 {
		t.Errorf("ConvergenceMS = %d, want finite", res.ConvergenceMS)
	}
	// Re-convergence bound: progress must resume within a small number of
	// W' timeouts after the heal (generous ×20 for loaded CI machines —
	// the wrapper itself fires within ~2δ).
	if res.FirstEntryAfterFaultMS < 0 {
		t.Fatal("no entry after the heal")
	}
	healMS := int64(1100)
	bound := 20 * delta.Milliseconds()
	if gap := res.FirstEntryAfterFaultMS - healMS; gap > bound {
		t.Errorf("first entry %dms after heal, want ≤ %dms (W' bound)", gap, bound)
	}
	// Every goroutine the run started exits: wire accept, senders and
	// connection readers, the chaos scheduler, the client drivers, the
	// sampler, the schedule applier and every wall-clock timer's relay.
	// Every socket and timer descriptor is closed.
	eventually(t, "the goroutine count is back to its baseline", func() bool {
		return goruntime.NumGoroutine() <= base
	})
	eventually(t, "the descriptor count is back to its baseline", func() bool {
		return openFDs() <= fds
	})
}

// openFDs counts the process's open descriptors; 0 where /proc/self/fd is
// not to be had, which turns the comparisons using it into no-ops.
func openFDs() int {
	ents, _ := os.ReadDir("/proc/self/fd")
	return len(ents)
}

// A full seeded chaos schedule (every fault class) leaves the wrapped
// cluster converged.
func TestRunLiveSeededScheduleConverges(t *testing.T) {
	dur := 1800 * time.Millisecond
	sched := wire.NewFaultSchedule(3, wire.ScheduleConfig{
		N: 3, Duration: dur, Bursts: 3, MaxPerBurst: 3,
		Mix: fault.DefaultMix, Partition: true,
	})
	res, err := RunLive(LiveConfig{N: 3, Seed: 3, Duration: dur, Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsApplied == 0 {
		t.Error("schedule applied no faults")
	}
	if !res.Converged {
		t.Fatalf("wrapped cluster did not converge under schedule: %+v", res)
	}
	if res.SafetyViolationsAfterConvergence != 0 {
		t.Errorf("%d violations after convergence", res.SafetyViolationsAfterConvergence)
	}
}

func TestLiveClusterTableQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("live experiment")
	}
	tab := LiveCluster(Quick)
	if len(tab.Rows) != 2 {
		t.Fatalf("E15 rows = %d, want 2", len(tab.Rows))
	}
	// The wrapped row (last) must have converged with no post-convergence
	// violations.
	wrapped := tab.Rows[len(tab.Rows)-1]
	if wrapped[6] != "0" || wrapped[7] != "true" {
		t.Errorf("wrapped row = %v, want after-conv 0 / converged true", wrapped)
	}
}

// TestLiveClientSleepReusesItsTimer: after its first wait, the live
// client's sleeper waits again without allocating, and a stop ends a wait
// early (about 5 ms of wall clock).
func TestLiveClientSleepReusesItsTimer(t *testing.T) {
	var s sleeper
	defer s.close()
	s.sleep(nil, time.Microsecond)
	if a := testing.AllocsPerRun(20, func() { s.sleep(nil, time.Microsecond) }); a != 0 {
		t.Errorf("a think or hold wait allocates %.1f, want 0", a)
	}
	stop := make(chan struct{})
	close(stop)
	if s.sleep(stop, time.Hour) {
		t.Error("a closed stop did not end the wait")
	}
	if !s.sleep(stop, 0) || !s.sleep(nil, time.Microsecond) {
		t.Error("the sleeper did not wait again after a stop")
	}
}
