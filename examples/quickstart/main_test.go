package main

// Example holds the §4 narrative on goroutines to its output: the six
// requests are held when they are dropped, and W' serves all three
// processes. Entry order and times depend on the wall clock, so only counts
// are printed.
func Example() {
	main()
	// Output:
	// 3 processes on goroutines, messages held 20ms in flight, W' (δ = 5ms) attached
	// all 3 requested the critical section; FAULT: all 6 in-flight requests dropped
	// all 3 processes were served: W' resent the lost requests and kept
	// the spec-level state mutually consistent (DSN 2001, Theorem 8)
}
