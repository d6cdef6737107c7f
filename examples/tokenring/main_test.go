package main

// Example runs the three scenarios on seeded virtual time and holds the
// narrative to its output: the bare ring dies when its token is lost, and
// the one regeneration wrapper revives both the eager and the lazy
// implementation.
func Example() {
	main()
	// Output:
	// === eager implementation, no wrapper ===
	//   t=60  circulation healthy: 20 token deliveries so far
	//   t=60  FAULT: token lost (in-flight dropped, holders cleared)
	//   t=660 ring is DEAD: no delivery since the fault (eager)
	//
	// === eager implementation, graybox regenerator (δ=25) ===
	//   t=60  circulation healthy: 20 token deliveries so far
	//   t=60  FAULT: token lost (in-flight dropped, holders cleared)
	//   t=660 ring recovered: 199 more deliveries, 1 regeneration(s), 0 stale discard(s)
	//
	// === lazy implementation, SAME wrapper, same fault ===
	//   t=60  circulation healthy: 31 token deliveries so far
	//   t=60  FAULT: token lost (in-flight dropped, holders cleared)
	//   t=660 ring recovered: 285 more deliveries, 1 regeneration(s), 0 stale discard(s)
	//
	// the regenerator reads only the spec variables (ring.View), so it
	// stabilizes every implementation of TCspec — the paper's method, reused
}
