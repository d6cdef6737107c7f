package main

// Example runs the reuse table and holds it to its output: W'(δ=5)
// stabilizes both implementations under the same fault schedule, while the
// bare Lamport system starves every process.
func Example() {
	main()
	// Output:
	// one wrapper W'(δ=5), two implementations, same fault schedule
	// (3 bursts of mixed faults: loss, duplication, corruption, state)
	//
	// implementation     wrapper    converged  conv. time     starved
	// ricart-agrawala    none       true       10             []
	// ricart-agrawala    W'(δ=5)    true       9              []
	// lamport            none       false      39600          [0 1 2 3 4]
	// lamport            W'(δ=5)    true       10             []
	//
	// the wrapper reads only the Lspec variables (tme.SpecView), so the
	// same code stabilizes every everywhere-implementation of Lspec
}
