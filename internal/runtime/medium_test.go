package runtime

import (
	goruntime "runtime"
	"testing"
	"time"

	"github.com/graybox-stabilization/graybox/internal/ra"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wire"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// bareHold is the hold of a test that wants messages carried, not
// faulted: short, and fixed, so it draws nothing.
const bareHold = 100 * time.Microsecond

// inProcess builds cfg's cluster on the in-process medium: the chaos proxy,
// holding every message for a uniform draw from [minHold, maxHold], piped
// into one wire.Transport whose Local lists every id. It returns the
// cluster, not started, with its proxy, whose engine.Surface is where a
// test injects in-flight faults. Cleanup stops the cluster and closes the
// proxy; a test counting goroutines does both itself first.
func inProcess(t *testing.T, cfg Config, minHold, maxHold time.Duration) (*Cluster, *wire.Chaos) {
	t.Helper()
	all := make([]int, cfg.N)
	for i := range all {
		all[i] = i
	}
	tr, err := wire.NewTransport(wire.Config{N: cfg.N, Local: all, Obs: cfg.Obs})
	if err != nil {
		t.Fatal(err)
	}
	chaos := wire.NewChaos(wire.ChaosConfig{
		N: cfg.N, Shards: cfg.Shards, Seed: 1,
		MinDelay: minHold, MaxDelay: maxHold, Obs: cfg.Obs,
	})
	cfg.Transport = chaos.Pipe(tr)
	c, err := NewCluster(cfg)
	if err != nil {
		_ = chaos.Close()
		_ = tr.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Stop()
		_ = chaos.Close()
	})
	return c, chaos
}

// The medium's cost: an unwrapped cluster of eight adds no goroutine of
// its own, only the proxy's scheduler with its timer's relay and the
// transport's accept loop (3: one scheduler serves every directed edge,
// and every step runs on a goroutine that brings it an input); a wrapped
// one adds one W' timer relay per process (n + 3). Stop with the proxy's
// Close gives every goroutine and descriptor back.
func TestInProcessMediumCost(t *testing.T) {
	const n = 8
	for _, k := range []struct {
		name    string
		wrapper func(int) wrapper.Level2
		most    int
	}{
		{"unwrapped", nil, 4},
		{"wrapped", func(int) wrapper.Level2 { return wrapper.NewTimed(time.Second.Nanoseconds()) }, n + 4},
	} {
		goroutines, fds := goruntime.NumGoroutine(), openFDs()
		c, chaos := inProcess(t, Config{N: n, NewNode: func(id, nn int) tme.Node { return ra.New(id, nn) }, NewWrapper: k.wrapper}, bareHold, bareHold)
		c.Start()
		c.RequestShard(0, 0)
		if !waitFor(t, 5*time.Second, func() bool { return c.PhaseShard(0, 0) == tme.Eating }) {
			t.Fatalf("%s: process 0 never entered", k.name)
		}
		c.ReleaseShard(0, 0)
		added := goruntime.NumGoroutine() - goroutines
		t.Logf("the running %s cluster added %d goroutines", k.name, added)
		if added > k.most {
			t.Errorf("the running %s cluster added %d goroutines, want at most %d", k.name, added, k.most)
		}
		c.Stop()
		_ = chaos.Close()
		if !waitFor(t, 5*time.Second, func() bool { return goruntime.NumGoroutine() <= goroutines }) {
			t.Errorf("%s: goroutines: %d before, %d after Stop and Close", k.name, goroutines, goruntime.NumGoroutine())
		}
		if after := openFDs(); after > fds {
			t.Errorf("%s: descriptors: %d before, %d after Stop and Close", k.name, fds, after)
		}
	}
}
