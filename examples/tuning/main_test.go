package main

// Example runs the δ sweep and holds the tuning trade of W' to its output,
// on seeded virtual time. Two behaviours of the armed deadline are pinned
// by it: δ=0 and δ=1 read identically, because the simulator arms the eager
// W with a one-tick period (max(δ,1)); and recovery from the deadlock takes
// δ+2 ticks for every δ ≥ 2, and 2 ticks at δ ≤ 1. The resend-storm
// warnings go to stderr, which the comparison leaves out.
func Example() {
	main()
	// Output:
	// W' timeout sweep on Ricart–Agrawala, n=4
	//
	// δ        recovery latency (ticks) wrapper msgs (fault-free run)
	// 0        2                        607 (15.18 per CS entry)
	// 1        2                        607 (15.18 per CS entry)
	// 2        4                        333 (8.32 per CS entry)
	// 5        7                        114 (2.85 per CS entry)
	// 10       12                       31 (0.78 per CS entry)
	// 20       22                       0 (0.00 per CS entry)
	// 50       52                       0 (0.00 per CS entry)
	// 100      102                      0 (0.00 per CS entry)
	//
	// pick δ near your request round-trip time: recovery stays prompt
	// while the consistent-state overhead collapses
}
