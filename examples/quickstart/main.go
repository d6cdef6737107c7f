// Quickstart: the paper's §4 deadlock on real goroutines. Three
// Ricart–Agrawala processes request the critical section at once, every
// request is lost in flight, and the graybox wrapper W' resends them, so all
// three are served. Without W' none would ever enter: nothing in RA ME
// resends a lost request (examples/deadlock shows both runs in virtual
// time).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/graybox-stabilization/graybox/internal/fault"
	"github.com/graybox-stabilization/graybox/internal/ra"
	"github.com/graybox-stabilization/graybox/internal/runtime"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wire"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

func main() {
	const n = 3
	const hold, delta = 20 * time.Millisecond, 5 * time.Millisecond

	// The in-process medium: one transport hosting every process, behind
	// the chaos proxy, which holds each message 20 ms in flight, where the
	// fault model (§3.1) can reach it.
	tr, err := wire.NewTransport(wire.Config{N: n, Local: []int{0, 1, 2}})
	if err != nil {
		log.Fatal(err)
	}
	chaos := wire.NewChaos(wire.ChaosConfig{N: n, MinDelay: hold, MaxDelay: hold})
	defer chaos.Close()
	cluster, err := runtime.NewCluster(runtime.Config{
		N:       n,
		NewNode: func(id, nn int) tme.Node { return ra.New(id, nn) },
		// W' is evaluated δ after a process turns hungry, and every δ
		// while it stays hungry; never while it is not.
		NewWrapper: func(int) wrapper.Level2 { return wrapper.NewTimed(delta.Nanoseconds()) },
		Transport:  chaos.Pipe(tr),
	})
	if err != nil {
		log.Fatal(err)
	}
	entries := make(chan runtime.Entry, n)
	cluster.OnEntry(func(e runtime.Entry) { entries <- e })
	cluster.Start()
	defer cluster.Stop()

	fmt.Printf("%d processes on goroutines, messages held %v in flight, W' (δ = %v) attached\n", n, hold, delta)
	for i := 0; i < n; i++ {
		cluster.RequestShard(0, i)
	}
	held := 0
	for _, ep := range chaos.Channels() {
		held += chaos.QueueLen(ep)
	}
	fault.DropAllInFlight(chaos)
	fmt.Printf("all %d requested the critical section; FAULT: all %d in-flight requests dropped\n", n, held)

	served := 0
	deadline := time.After(30 * time.Second)
	for served < n {
		select {
		case e := <-entries:
			cluster.ReleaseShard(0, e.ID)
			served++
		case <-deadline:
			log.Fatal("starvation: the wrapper should have prevented this")
		}
	}
	fmt.Printf("all %d processes were served: W' resent the lost requests and kept\n", served)
	fmt.Println("the spec-level state mutually consistent (DSN 2001, Theorem 8)")
}
