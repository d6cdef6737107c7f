package sim

import "math/rand/v2"

// GlobalRandV2 draws from math/rand/v2's top-level functions, which read a
// source no seed reaches.
func GlobalRandV2() int {
	return rand.IntN(6) // want:determinism "rand.IntN draws from math/rand/v2's unseedable global source"
}

// GlobalRandV2Generic draws through the generic top-level N, with the type
// argument inferred and written out.
func GlobalRandV2Generic() int64 {
	a := rand.N(int64(6))       // want:determinism "rand.N draws from math/rand/v2's unseedable global source"
	return a + rand.N[int64](6) // want:determinism "rand.N draws from math/rand/v2's unseedable global source"
}

// GlobalRandV2Bits draws raw bits from the global source.
func GlobalRandV2Bits() uint64 {
	return rand.Uint64() // want:determinism "use a seeded stream (seeded.New(seed)"
}

// GlobalRandV2Suppressed is the ignore-directive twin of GlobalRandV2.
func GlobalRandV2Suppressed() int {
	//gblint:ignore determinism fixture: sanctioned unseeded draw
	return rand.IntN(6)
}

// SeededPCG is the sanctioned v2 form: a generator over a seeded PCG.
func SeededPCG(seed uint64) int {
	return rand.New(rand.NewPCG(seed, seed)).IntN(6)
}

// PCGByValue draws from a PCG the caller holds: a method, not a global draw.
func PCGByValue(p *rand.PCG) uint64 { return p.Uint64() }
