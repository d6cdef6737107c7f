package tme

import (
	"math/rand"

	"github.com/graybox-stabilization/graybox/internal/ltime"
)

// This file is the TME half of the paper's fault model (DSN 2001 §3.1):
// what a corrupted message and a transiently corrupted process look like.
// Every substrate's engine.Surface FaultCorrupt/FaultPerturb draws its
// damage here, so the simulator and the live cluster reach the same states
// from the same draws.

// maxClock bounds forged timestamp clocks.
const maxClock = 64

func randomTS(rng *rand.Rand, pid int) ltime.Timestamp {
	return ltime.Timestamp{Clock: uint64(rng.Int63n(maxClock)), PID: pid}
}

// CorruptMessage overwrites one field of m, drawn from rng, in a system of
// n processes: the timestamp (pid drawn before clock), the kind (possibly
// invalid: receivers drop it) or the sender (possibly out of range).
func CorruptMessage(rng *rand.Rand, m *Message, n int) {
	switch rng.Intn(3) {
	case 0:
		m.TS = randomTS(rng, rng.Intn(n))
	case 1:
		m.Kind = Kind(rng.Intn(4))
	case 2:
		m.From = rng.Intn(n + 1)
	}
}

// RandomCorruption draws an arbitrary transient state corruption for
// process id of n. The phase it forges is always one of {t,h,e}: the
// paper's Lspec implementations maintain Structural Spec, and sub-Lspec
// damage (an invalid phase) is built directly as Corruption{Phase: ...} by
// the level-1 experiments and tests that need it.
func RandomCorruption(rng *rand.Rand, id, n int) Corruption {
	c := Corruption{Seed: rng.Int63()}
	if rng.Intn(2) == 0 {
		c.Phase = Phase(1 + rng.Intn(3))
	}
	if rng.Intn(2) == 0 {
		ts := randomTS(rng, id)
		c.REQ = &ts
	}
	if rng.Intn(2) == 0 {
		c.LocalREQ = make(map[int]ltime.Timestamp)
		for k := 0; k < n; k++ {
			if k != id && rng.Intn(2) == 0 {
				c.LocalREQ[k] = randomTS(rng, k)
			}
		}
	}
	for k := 0; k < n; k++ {
		if k == id {
			continue
		}
		switch rng.Intn(4) {
		case 0:
			c.DropReceived = append(c.DropReceived, k)
		case 1:
			c.ForgeReceived = append(c.ForgeReceived, k)
		}
	}
	if rng.Intn(3) == 0 {
		clk := uint64(rng.Int63n(maxClock))
		c.Clock = &clk
	}
	if rng.Intn(3) == 0 {
		c.ScrambleInternal = true
	}
	return c
}
