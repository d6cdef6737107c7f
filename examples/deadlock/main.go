// Deadlock: the paper's §4 scenario, step by step, in the deterministic
// simulator. All processes request the critical section simultaneously,
// every request is lost, and the processes' local copies become mutually
// inconsistent: each believes its own request is not yet the earliest and
// waits for replies that will never come. Without the wrapper the deadlock
// is permanent; with W' it is resolved within a few timeouts.
//
//	go run ./examples/deadlock
package main

import (
	"fmt"

	"github.com/graybox-stabilization/graybox/internal/fault"
	"github.com/graybox-stabilization/graybox/internal/ra"
	"github.com/graybox-stabilization/graybox/internal/sim"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

func scenario(withWrapper bool) {
	const n = 3
	cfg := sim.Config{
		N:       n,
		Seed:    7,
		NewNode: func(id, nn int) tme.Node { return ra.New(id, nn) },
	}
	if withWrapper {
		cfg.NewWrapper = func(int) wrapper.Level2 { return wrapper.NewTimed(10) }
	}
	s := sim.New(cfg)

	// t=10: everyone requests. t=11: every request is dropped in flight.
	s.At(10, func(s *sim.Sim) {
		for i := 0; i < n; i++ {
			s.Request(i)
		}
	})
	s.At(11, func(s *sim.Sim) {
		fmt.Printf("  t=11   FAULT: all %d in-flight requests dropped\n", s.Net().TotalQueued())
		fault.DropAllInFlight(s)
	})

	// Narrate entries as they happen.
	seen := 0
	s.SetObserver(func(s *sim.Sim) {
		for _, e := range s.Metrics().Entries[seen:] {
			fmt.Printf("  t=%-4d process %d entered the CS (request %s)\n", e.Time, e.ID, e.REQ)
			seen++
			s.Release(e.ID) // eat for an instant, then release
		}
	})

	s.Run(2000)

	if len(s.Metrics().Entries) == 0 {
		fmt.Println("  t=2000 horizon reached: NO process ever entered — deadlock")
		for i := 0; i < n; i++ {
			st := tme.Snapshot(s.Node(i))
			fmt.Printf("         process %d: phase=%v REQ=%s (waiting forever)\n", i, st.Phase, st.REQ)
		}
	} else {
		fmt.Printf("  all %d processes served; wrapper sent %d recovery requests\n",
			len(s.Metrics().Entries), s.Metrics().WrapperMsgs)
	}
}

func main() {
	fmt.Println("=== without wrapper (plain RA ME) ===")
	scenario(false)
	fmt.Println()
	fmt.Println("=== with graybox wrapper W' (δ=10) ===")
	scenario(true)
}
