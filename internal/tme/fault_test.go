package tme

import (
	"math/rand"
	"testing"
)

// TestCorruptionPhaseIsValid checks a drawn corruption never breaks
// Structural Spec: invalid phases are built by hand where a test needs one.
func TestCorruptionPhaseIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		c := RandomCorruption(rng, 0, 3)
		if c.Phase != 0 && !c.Phase.Valid() {
			t.Fatalf("drawn corruption has invalid phase %d", c.Phase)
		}
	}
}
