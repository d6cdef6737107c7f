package harness

import (
	"bytes"
	"strings"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/fault"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/ring"
	"github.com/graybox-stabilization/graybox/internal/sim"
	"github.com/graybox-stabilization/graybox/internal/tokenring"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// Cross-substrate determinism: every engine-backed substrate, driven by the
// unified fault injector, is a pure function of its seeds — the same seed
// yields byte-identical metrics JSON and byte-identical trace streams.

// runFingerprint renders a run's observable output: the metrics snapshot as
// JSON plus every trace event, concatenated.
func runFingerprint(t *testing.T, o *obs.Obs) string {
	t.Helper()
	var buf bytes.Buffer
	if err := o.Registry().Snapshot().WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var sb strings.Builder
	sb.Write(buf.Bytes())
	for _, e := range o.Tracer().Events() {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func tmeRun(t *testing.T, seed int64) string {
	o := obs.New(obs.Options{TraceCapacity: 4096})
	s := sim.New(sim.Config{
		N: 4, Seed: seed,
		NewNode:     RA.Factory(),
		Workload:    true,
		MaxRequests: 20,
		NewWrapper:  func(int) wrapper.Level2 { return wrapper.NewTimed(5) },
		Obs:         o,
	})
	in := fault.NewInjector(seed+1001, fault.DefaultMix)
	in.Schedule(s, []int64{200, 300}, 8)
	s.Run(10000)
	return runFingerprint(t, o)
}

func ringRun(t *testing.T, seed int64) string {
	o := obs.New(obs.Options{TraceCapacity: 4096})
	s := ring.NewSim(ring.SimConfig{
		N: 6, Seed: seed,
		NewNode:      func(id, n int) ring.Node { return ring.NewEager(id, n, 2) },
		WrapperDelta: 25,
		Obs:          o,
	})
	in := fault.NewInjector(seed+2002, fault.DefaultMix)
	in.Schedule(s, []int64{50, 80}, 4)
	s.Run(1500)
	return runFingerprint(t, o)
}

func tokenringRun(t *testing.T, seed int64) string {
	o := obs.New(obs.Options{TraceCapacity: 4096})
	s := tokenring.NewSim(tokenring.SimConfig{N: 5, Seed: seed, Obs: o})
	in := fault.NewInjector(seed+3003, fault.DefaultMix)
	in.Schedule(s, []int64{10}, 5)
	s.Run(2000)
	return runFingerprint(t, o)
}

func TestCrossSubstrateDeterminism(t *testing.T) {
	substrates := []struct {
		name string
		run  func(*testing.T, int64) string
	}{
		{"tme", tmeRun},
		{"ring", ringRun},
		{"tokenring", tokenringRun},
	}
	for _, sub := range substrates {
		sub := sub
		t.Run(sub.name, func(t *testing.T) {
			a := sub.run(t, 7)
			b := sub.run(t, 7)
			if a != b {
				t.Fatalf("%s: same seed produced different output\n--- run 1 ---\n%.2000s\n--- run 2 ---\n%.2000s", sub.name, a, b)
			}
			if len(a) == 0 {
				t.Fatalf("%s: empty fingerprint — run produced no observable output", sub.name)
			}
			c := sub.run(t, 8)
			if a == c {
				t.Fatalf("%s: different seeds produced identical output (seed unused?)", sub.name)
			}
		})
	}
}
