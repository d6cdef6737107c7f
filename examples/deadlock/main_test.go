package main

// Example runs both scenarios and holds the §4 narrative to its output:
// without the wrapper no process ever enters; with W' (δ = 10, armed when
// the requests are issued at t = 10) every wrapper falls due at t = 20, and
// the resent requests serve all three processes within a flight.
func Example() {
	main()
	// Output:
	// === without wrapper (plain RA ME) ===
	//   t=11   FAULT: all 6 in-flight requests dropped
	//   t=2000 horizon reached: NO process ever entered — deadlock
	//          process 0: phase=h REQ=1.0 (waiting forever)
	//          process 1: phase=h REQ=1.1 (waiting forever)
	//          process 2: phase=h REQ=1.2 (waiting forever)
	//
	// === with graybox wrapper W' (δ=10) ===
	//   t=11   FAULT: all 6 in-flight requests dropped
	//   t=24   process 0 entered the CS (request 1.0)
	//   t=25   process 1 entered the CS (request 1.1)
	//   t=30   process 2 entered the CS (request 1.2)
	//   all 3 processes served; wrapper sent 7 recovery requests
}
