// Quickstart: wrap Ricart–Agrawala mutual exclusion with the graybox
// wrapper W' and watch it survive a lossy network on real goroutines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/graybox-stabilization/graybox/internal/ra"
	"github.com/graybox-stabilization/graybox/internal/runtime"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

func main() {
	const n = 3
	// A cluster that drops 30% of all messages — enough to wedge plain
	// RA ME regularly — wrapped with the paper's W (evaluated every
	// millisecond a process stays hungry, and never while it is not).
	cluster, err := runtime.NewCluster(runtime.Config{
		N:        n,
		Seed:     42,
		NewNode:  func(id, nn int) tme.Node { return ra.New(id, nn) },
		LossRate: 0.3,
		NewWrapper: func(int) wrapper.Level2 {
			return wrapper.Func(wrapper.W)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	entries := make(chan runtime.Entry, n)
	cluster.OnEntry(func(e runtime.Entry) { entries <- e })
	cluster.Start()
	defer cluster.Stop()

	fmt.Printf("3 processes, 30%% message loss, graybox wrapper W attached\n\n")
	for i := 0; i < n; i++ {
		cluster.RequestShard(0, i)
		fmt.Printf("process %d requested the critical section\n", i)
	}

	served := 0
	deadline := time.After(30 * time.Second)
	for served < n {
		select {
		case e := <-entries:
			fmt.Printf("process %d ENTERED the critical section (entry #%d)\n", e.ID, e.Seq+1)
			time.Sleep(2 * time.Millisecond) // "eat"
			cluster.ReleaseShard(0, e.ID)
			fmt.Printf("process %d released it\n", e.ID)
			served++
		case <-deadline:
			log.Fatal("starvation: the wrapper should have prevented this")
		}
	}
	fmt.Printf("\nall %d processes were served despite the losses — W kept the\n", n)
	fmt.Println("spec-level state mutually consistent (DSN 2001, Theorem 8)")
}
