package graybox_test

import (
	goruntime "runtime"
	"testing"
	"time"

	graybox "github.com/graybox-stabilization/graybox"
)

// The facade end-to-end: Figure 1 through the public API.
func TestFacadeFormalFramework(t *testing.T) {
	a, c := graybox.Fig1A(), graybox.Fig1C()
	if !graybox.Implements(c, a).Holds {
		t.Error("Implements via facade failed")
	}
	if graybox.EverywhereImplements(c, a).Holds {
		t.Error("EverywhereImplements via facade should fail")
	}
	ok, lasso := graybox.StabilizingTo(c, a)
	if ok || lasso == nil {
		t.Error("StabilizingTo via facade wrong")
	}
	st, err := graybox.Synthesize(a, graybox.AllCandidates(a.NumStates()))
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := graybox.StabilizingTo(st.Wrapped(c), a); !ok {
		t.Error("synthesized wrapper via facade failed")
	}
	// Builder + Box + Product round trip.
	x := graybox.NewSystem("x", 2).AddTransition(0, 1).AddTransition(1, 0).SetInit(0).MustBuild()
	y := graybox.NewSystem("y", 2).AddTransition(0, 0).AddTransition(1, 1).SetInit(0).MustBuild()
	if _, err := graybox.Box(x, y); err != nil {
		t.Errorf("Box via facade: %v", err)
	}
	if _, err := graybox.Product("p", x, y); err != nil {
		t.Errorf("Product via facade: %v", err)
	}
}

// The facade end-to-end: a monitored, wrapped, faulty simulation using
// only public names — the README's advertised usage.
func TestFacadeSimulation(t *testing.T) {
	s := graybox.NewSim(graybox.SimConfig{
		N:       3,
		Seed:    1,
		NewNode: graybox.NewRicartAgrawala,
		NewWrapper: func(int) graybox.Level2 {
			return graybox.NewTimedWrapper(5)
		},
		Workload:    true,
		MaxRequests: 5,
	})
	mon := graybox.NewMonitors(3)
	s.SetObserver(mon.AsObserver())
	in := graybox.NewInjector(7, graybox.FaultMix{Loss: 1, State: 1})
	in.Schedule(s, []int64{50}, 5)
	s.Run(10000)
	if len(s.Metrics().Entries) == 0 {
		t.Fatal("no entries through the facade")
	}
	if starved := mon.StarvedProcesses(); len(starved) != 0 {
		t.Errorf("starved: %v", starved)
	}
}

// The harness through the facade, with both algorithms.
func TestFacadeHarness(t *testing.T) {
	for _, algo := range []graybox.Algo{graybox.RicartAgrawala, graybox.Lamport} {
		r := graybox.Run(graybox.RunConfig{
			Algo: algo, N: 3, Seed: 2,
			Delta:         5,
			DeadlockFault: true,
			Horizon:       20000,
		})
		if !r.Converged {
			t.Errorf("%v facade run did not converge", algo)
		}
	}
	// And the wrapperless sentinel.
	r := graybox.Run(graybox.RunConfig{
		Algo: graybox.RicartAgrawala, N: 3, Seed: 2,
		Delta:         graybox.NoWrapper,
		DeadlockFault: true,
		Horizon:       5000,
	})
	if r.Converged {
		t.Error("unwrapped deadlock converged via facade")
	}
}

// The wrapper primitives and phases through the facade.
func TestFacadeWrapperAndNodes(t *testing.T) {
	nd := graybox.NewLamport(0, 2)
	if nd.Phase() != graybox.Thinking {
		t.Error("phase constant mismatch")
	}
	nd.RequestCS()
	if nd.Phase() != graybox.Hungry {
		t.Error("RequestCS via facade failed")
	}
	if msgs := graybox.W(nd); len(msgs) != 1 {
		t.Errorf("W via facade sent %d messages", len(msgs))
	}
	var l2 graybox.Level2 = graybox.WrapperFunc(graybox.W)
	if got := l2.Fire(0, nd); len(got) != 1 {
		t.Errorf("WrapperFunc via facade sent %d", len(got))
	}
}

// A cluster through the facade: with no Transport given, NewCluster hosts
// every id on one in-process transport, which delivers inside Send, so a
// step routes into the next on the same goroutine and can route back to the
// process it came from. A contended round, every process requesting at
// once, is served without deadlock, and Stop leaves no goroutine behind.
// make test-race runs it ten times under -race.
func TestFacadeCluster(t *testing.T) {
	const n = 3
	goroutines := goruntime.NumGoroutine()
	c, err := graybox.NewCluster(graybox.ClusterConfig{
		N:       n,
		NewNode: graybox.NewRicartAgrawala,
		NewWrapper: func(int) graybox.Level2 {
			return graybox.NewTimedWrapper((5 * time.Millisecond).Nanoseconds())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	// The round runs apart, so that a deadlock fails the test instead of
	// hanging it.
	served := make(chan []bool, 1)
	go func() {
		for i := 0; i < n; i++ {
			c.RequestShard(0, i)
		}
		done := make([]bool, n)
		for left, deadline := n, time.Now().Add(10*time.Second); left > 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			for i := range done {
				if !done[i] && c.PhaseShard(0, i) == graybox.Eating {
					done[i] = true
					left--
					c.ReleaseShard(0, i)
				}
			}
		}
		served <- done
	}()
	select {
	case done := <-served:
		for i, ok := range done {
			if !ok {
				c.Stop()
				t.Fatalf("process %d was not served in a contended round through the facade (served: %v)", i, done)
			}
		}
	case <-time.After(20 * time.Second):
		t.Fatal("a contended round through the facade deadlocked")
	}
	c.Stop()
	for deadline := time.Now().Add(5 * time.Second); goruntime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Stop", goroutines, goruntime.NumGoroutine())
		}
	}
}
