package main

// Example runs both syntheses and holds the narrative to its output: the
// synthesized stabilization wrapper makes Figure 1's C stabilize to A, and
// the synthesized masking tolerance verifies on the spec and, unchanged, on
// a random everywhere-implementation of it.
func Example() {
	main()
	// Output:
	// spec A and implementation C of the paper's Figure 1:
	//   C stabilizing to A before synthesis: false (lasso cycle [4] with bad transition 4->4)
	//   synthesized strategy acts on states [4] (max recovery 1 step)
	//   wrapped C stabilizing to A: true
	//
	// masking synthesis for a 5-state spec with fault 1→3 and bad state 4:
	//   recovery: state 3 → 0 (distance 1); unsafe slide 3→4 pruned
	//   verified: no bad state reachable, every fault-span state recovers
	//   reused unchanged on a random everywhere-implementation — still verified
}
