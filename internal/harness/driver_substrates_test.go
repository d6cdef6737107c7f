package harness

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/graybox-stabilization/graybox/internal/runtime"
	"github.com/graybox-stabilization/graybox/internal/sim"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/workload"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// driverFaultRows are the client's three fault rows (see the Driver's step
// table in internal/workload): the phase a process is found in, and the
// phase a perturb fault forges over it. Row k always hits process k, so no
// row's forged phase can rescue a client another row stranded.
var driverFaultRows = []struct {
	name        string
	when, forge tme.Phase
}{
	{"request wiped while awaiting", tme.Hungry, tme.Thinking},
	{"eating forged while thinking", tme.Thinking, tme.Eating},
	{"hungry forged while thinking", tme.Thinking, tme.Hungry},
}

// TestDriverFaultRowsOnBothSubstrates runs the fault rows through both
// adapters of the one client and requires that no client is stranded: on
// the simulator every client spends its whole request budget, on an
// in-process cluster every RunLiveClient keeps requesting and entering
// after the last fault. A client that waits for Eating instead of for
// leaving Hungry never asks again after the first row; one that does not
// release an Eating it never held starves everybody after the second.
func TestDriverFaultRowsOnBothSubstrates(t *testing.T) {
	const n = 3
	t.Run("sim", func(t *testing.T) {
		const budget, rounds = 12, 2
		s := sim.New(sim.Config{
			N: n, Seed: 7, NewNode: RA.Factory(),
			NewWrapper:  func(int) wrapper.Level2 { return wrapper.NewTimed(10) },
			Level1:      wrapper.PhaseGuard{},
			Workload:    true,
			MaxRequests: budget,
		})
		applied := 0
		for round := 0; round < rounds; round++ {
			for k, row := range driverFaultRows {
				k, row := k, row
				// Retry tick by tick until process k is in the row's phase.
				var inject func(s *sim.Sim)
				inject = func(s *sim.Sim) {
					if s.Node(k).Phase() != row.when {
						s.At(s.Now()+1, inject)
						return
					}
					s.Node(k).(tme.Corruptible).Corrupt(tme.Corruption{Phase: row.forge})
					applied++
				}
				s.At(int64(40*(round*len(driverFaultRows)+k+1)), inject)
			}
		}
		s.Run(20000)
		if want := rounds * len(driverFaultRows); applied != want {
			t.Fatalf("applied %d fault rows, want %d", applied, want)
		}
		if got := s.Metrics().Requests; got != n*budget {
			t.Errorf("requests = %d, want %d: a client did not finish its budget", got, n*budget)
		}
		for i := 0; i < n; i++ {
			if ph := s.Node(i).Phase(); ph != tme.Thinking {
				t.Errorf("process %d ends %v, want thinking", i, ph)
			}
		}
	})

	t.Run("live", func(t *testing.T) {
		const rounds, more = 3, 10
		delta := (5 * time.Millisecond).Nanoseconds()
		var requests, entries [n]atomic.Int64
		cl := inProcessCluster(t, runtime.Config{
			N: n, NewNode: RA.Factory(),
			NewWrapper: func(int) wrapper.Level2 { return wrapper.NewTimed(delta) },
			Level1:     wrapper.PhaseGuard{},
		})
		cl.OnEntry(func(e runtime.Entry) { entries[e.ID].Add(1) })
		cl.Start()

		stop := make(chan struct{})
		var wg sync.WaitGroup
		src := workload.NewGen(workload.UniformSpec(1, 3, 1), 7, n)
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				RunLiveClient(stop, cl, i, src.Client(i), func(int) { requests[i].Add(1) })
			}()
		}
		defer wg.Wait()
		defer close(stop)

		for round := 0; round < rounds; round++ {
			for k, row := range driverFaultRows {
				eventually(t, row.name, func() bool { return cl.PhaseShard(0, k) == row.when })
				cl.CorruptShard(0, k, tme.Corruption{Phase: row.forge})
			}
		}
		for i := 0; i < n; i++ {
			req, ent := requests[i].Load()+more, entries[i].Load()+more
			eventually(t, "every client requests and enters again after the last fault", func() bool {
				return requests[i].Load() >= req && entries[i].Load() >= ent
			})
		}
	})
}
