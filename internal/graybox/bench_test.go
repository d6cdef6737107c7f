package graybox

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/seeded"
)

// BenchmarkStabilizingToLarge measures the model checker on a 4096-state
// random system.
func BenchmarkStabilizingToLarge(b *testing.B) {
	rng := seeded.New(5)
	a := Random(rng, "a", 4096, 2.0)
	c := RandomSub(rng, "c", a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StabilizingTo(c, a)
	}
}
