package harness

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/graybox-stabilization/graybox/internal/ra"
	"github.com/graybox-stabilization/graybox/internal/runtime"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wallclock"
	"github.com/graybox-stabilization/graybox/internal/wire"
	"github.com/graybox-stabilization/graybox/internal/workload"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// inProcessCluster builds cfg's cluster, not started, on the in-process
// medium: the chaos proxy, holding every message 100 µs, piped into one
// wire.Transport whose Local lists every id. Cleanup stops the cluster and
// closes the proxy.
func inProcessCluster(t *testing.T, cfg runtime.Config) *runtime.Cluster {
	t.Helper()
	all := make([]int, cfg.N)
	for i := range all {
		all[i] = i
	}
	tr, err := wire.NewTransport(wire.Config{N: cfg.N, Local: all})
	if err != nil {
		t.Fatal(err)
	}
	hold := 100 * time.Microsecond
	chaos := wire.NewChaos(wire.ChaosConfig{N: cfg.N, Shards: cfg.Shards, MinDelay: hold, MaxDelay: hold})
	cfg.Transport = chaos.Pipe(tr)
	cl, err := runtime.NewCluster(cfg)
	if err != nil {
		_ = chaos.Close()
		_ = tr.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Stop()
		_ = chaos.Close()
	})
	return cl
}

// clientCluster is a two-process in-process cluster under the wrappers a
// live run uses, with process 1 left to the test: while the test keeps it
// eating, a client loop on process 0 stays Hungry.
func clientCluster(t *testing.T, onEntry func(runtime.Entry)) *runtime.Cluster {
	t.Helper()
	delta := (5 * time.Millisecond).Nanoseconds()
	cl := inProcessCluster(t, runtime.Config{
		N:          2,
		NewNode:    func(id, n int) tme.Node { return ra.New(id, n) },
		NewWrapper: func(int) wrapper.Level2 { return wrapper.NewTimed(delta) },
		Level1:     wrapper.PhaseGuard{},
	})
	if onEntry != nil {
		cl.OnEntry(onEntry)
	}
	cl.Start()
	cl.RequestShard(0, 1)
	if ph, ok := cl.AwaitPhaseChangeShard(testDeadline(t), 0, 1, tme.Hungry); !ok || ph != tme.Eating {
		t.Fatalf("process 1 never entered: (%v, %v)", ph, ok)
	}
	return cl
}

// testDeadline closes after ten seconds: a stop channel that turns a wait
// the test expects to be satisfied into a failure instead of a hang.
func testDeadline(t *testing.T) <-chan struct{} {
	t.Helper()
	stop := make(chan struct{})
	timer := time.AfterFunc(10*time.Second, func() { close(stop) })
	t.Cleanup(func() { timer.Stop() })
	return stop
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// startClient runs the shared loop for process 0, thinking and holding for
// one LiveTick each, and returns once its first request is pending (process
// 1 eats, so it stays Hungry). Closing stop ends the loop; done closes when
// it has returned.
func startClient(t *testing.T, cl *runtime.Cluster, onRequest func(shard int)) (stop, done chan struct{}) {
	t.Helper()
	draws := workload.NewGen(workload.UniformSpec(1, 1, 1), 1, 2).Client(0)
	stop, done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		RunLiveClient(stop, cl, 0, draws, onRequest)
	}()
	eventually(t, "process 0 is hungry", func() bool { return cl.PhaseShard(0, 0) == tme.Hungry })
	return stop, done
}

// The stranded-client regression: a perturb fault that resets a hungry
// process to Thinking used to leave its client waiting for Eating until the
// run ended, because the client is the only caller of RequestShard. The
// shared loop waits for "left Hungry" and asks again.
func TestLiveClientRerequestsAfterWipe(t *testing.T) {
	entered := make(chan runtime.Entry, 16)
	cl := clientCluster(t, func(e runtime.Entry) { entered <- e })
	<-entered // process 1, from clientCluster

	var requests atomic.Int64
	stop, done := startClient(t, cl, func(int) { requests.Add(1) })
	if got := requests.Load(); got != 1 {
		t.Fatalf("requests before the fault = %d, want 1", got)
	}

	cl.CorruptShard(0, 0, tme.Corruption{Phase: tme.Thinking})
	eventually(t, "the client asks again", func() bool { return requests.Load() >= 2 })

	cl.ReleaseShard(0, 1)
	select {
	case e := <-entered:
		if e.ID != 0 {
			t.Fatalf("entry by process %d, want 0", e.ID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("process 0 never entered after its request was wiped")
	}
	close(stop)
	<-done
}

// A forged Eating phase ends the wait too: the client holds for its drawn
// time, releases, and goes round again.
func TestLiveClientReleasesForgedEating(t *testing.T) {
	cl := clientCluster(t, nil)
	var requests atomic.Int64
	stop, done := startClient(t, cl, func(int) { requests.Add(1) })
	cl.CorruptShard(0, 0, tme.Corruption{Phase: tme.Eating})
	eventually(t, "the client releases and asks again", func() bool { return requests.Load() >= 2 })
	close(stop)
	<-done
}

// An entry that no request of ours is behind (a perturb fault forged
// Hungry and the wrapper saw it served) records no latency: the stamp of
// the previous, served request was taken when that request entered.
func TestRunLiveForgedEntryRecordsNoLatency(t *testing.T) {
	var stamp atomic.Int64
	latencies := make(chan int64, 16)
	cl := clientCluster(t, func(e runtime.Entry) {
		if e.ID == 0 {
			latencies <- takeLatency(&stamp, e.At.UnixNano())
		}
	})
	cl.ReleaseShard(0, 1)

	stamp.Store(wallclock.Now())
	cl.RequestShard(0, 0)
	if lat := <-latencies; lat < 0 {
		t.Fatalf("requested entry recorded latency %d, want >= 0", lat)
	}
	cl.ReleaseShard(0, 0)

	cl.CorruptShard(0, 0, tme.Corruption{Phase: tme.Hungry})
	select {
	case lat := <-latencies:
		if lat != -1 {
			t.Fatalf("forged entry recorded latency %d since the previous request, want -1", lat)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the forged request was never served")
	}
}

// The loop returns from its wait when the caller stops it and when the
// cluster under it stops.
func TestLiveClientStops(t *testing.T) {
	for _, byCluster := range []bool{false, true} {
		cl := clientCluster(t, nil)
		stop, done := startClient(t, cl, nil)
		if byCluster {
			cl.Stop()
		} else {
			close(stop)
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("client loop still running after stop (byCluster=%v)", byCluster)
		}
	}
}

// The hand-off rate the notification buys: with think = hold = 1 ms and
// nothing injected, a three-node cluster is always contended, so entries
// over Duration/EatTime is the share of time the critical section is
// occupied. A driver that sleep-polled for its entry measured 0.43 here;
// the notified one 0.75.
func TestRunLiveSaturatedHandoffRate(t *testing.T) {
	if testing.Short() {
		t.Skip("two-second live run")
	}
	cfg := LiveConfig{
		N: 3, Seed: 1, Duration: 2 * time.Second,
		ThinkMin: time.Millisecond, ThinkMax: time.Millisecond, EatTime: time.Millisecond,
		ChaosMinDelay: time.Microsecond, ChaosMaxDelay: time.Microsecond,
	}
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SafetyViolations != 0 {
		t.Errorf("%d safety violations in a fault-free run", res.SafetyViolations)
	}
	floor := 0.55 * float64(cfg.Duration/cfg.EatTime)
	if float64(res.Entries) < floor {
		t.Errorf("entries = %d over %v, want >= %.0f (0.55 x Duration/EatTime)", res.Entries, cfg.Duration, floor)
	}
}

// W' is armed δ after a process turns hungry, so a fault-free run whose
// every wait is far below δ evaluates it not once: the common case pays
// what the bare protocol pays. Three nodes at think = hold = 1 ms wait a
// few milliseconds for the other two holds, against δ = 25 ms.
func TestRunLiveFaultFreeEvaluatesNoWrapper(t *testing.T) {
	res, err := RunLive(LiveConfig{
		N: 3, Seed: 1, Duration: 300 * time.Millisecond, Delta: 25 * time.Millisecond,
		ThinkMin: time.Millisecond, ThinkMax: time.Millisecond, EatTime: time.Millisecond,
		ChaosMinDelay: time.Microsecond, ChaosMaxDelay: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries == 0 {
		t.Fatal("no entries")
	}
	if got := res.Snapshot.Counter("wrapper_evals_total"); got != 0 {
		t.Errorf("wrapper_evals_total = %d over %d entries, want 0: W' was evaluated before any wait reached δ",
			got, res.Entries)
	}
}
