// Reuse: the whole point of graybox stabilization — one wrapper, designed
// from Lspec alone, stabilizes two completely different implementations
// (Ricart–Agrawala and Lamport ME) under identical fault schedules
// (Corollary 11). The wrapper code never changes; only the node factory
// does.
//
//	go run ./examples/reuse
package main

import (
	"fmt"

	"github.com/graybox-stabilization/graybox/internal/harness"
)

func main() {
	fmt.Println("one wrapper W'(δ=5), two implementations, same fault schedule")
	fmt.Println("(3 bursts of mixed faults: loss, duplication, corruption, state)")
	fmt.Println()
	fmt.Printf("%-18s %-10s %-10s %-14s %s\n",
		"implementation", "wrapper", "converged", "conv. time", "starved")

	for _, algo := range []harness.Algo{harness.RA, harness.Lamport} {
		for _, delta := range []int64{harness.NoWrapper, 5} {
			r := harness.Run(harness.RunConfig{
				Algo: algo, N: 5,
				Seed: 3, FaultSeed: 1003,
				Delta:      delta,
				FaultTimes: []int64{200, 300, 400}, FaultsPerBurst: 15,
				MaxRequests: 40,
				Horizon:     40000,
				Monitor:     true,
			})
			wname := "W'(δ=5)"
			if delta == harness.NoWrapper {
				wname = "none"
			}
			fmt.Printf("%-18s %-10s %-10v %-14d %v\n",
				algo, wname, r.Converged, r.ConvergenceTime, r.Starved)
		}
	}

	fmt.Println()
	fmt.Println("the wrapper reads only the Lspec variables (tme.SpecView), so the")
	fmt.Println("same code stabilizes every everywhere-implementation of Lspec")
}
