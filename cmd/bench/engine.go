package main

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/engine"
)

// benchEngineDispatch measures the engine core's steady-state
// schedule→pop→dispatch cycle in isolation: a self-sustaining population
// of typed events where every handled event schedules its successor. This
// is the hot path under every substrate (and, since the sharded sim, it
// runs once per shard core inside each barrier window), so it must stay
// allocation-free — the gate fails if allocs/op regresses above zero.
func benchEngineDispatch(b *testing.B) {
	const kindPing uint8 = 1
	const population = 64

	c := engine.New(1)
	var handled, target int64
	c.SetHandler(func(e *engine.Event) {
		if e.Kind != kindPing {
			e.Call()
			return
		}
		handled++
		if handled >= target {
			c.Stop()
			return
		}
		// Vary the delay so the queue actually reorders instead of acting
		// as a FIFO, using only the event's own operands (no rng draw on
		// the measured path).
		c.Schedule(1+int64(e.A%7), kindPing, e.A+1, e.B)
	})
	for i := 0; i < population; i++ {
		c.Schedule(int64(i%7), kindPing, int32(i), 0)
	}

	b.ReportAllocs()
	b.ResetTimer()
	target = int64(b.N)
	c.Run(1 << 62)
}
