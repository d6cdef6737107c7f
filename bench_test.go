// Benchmarks regenerating every experiment of EXPERIMENTS.md (E1–E9), plus
// microbenchmarks of the core data structures. Custom metrics carry the
// paper-shape quantities: convergence/recovery latencies in virtual ticks,
// message overheads per CS entry.
//
//	go test -bench=. -benchmem
package graybox

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/channel"
	gb "github.com/graybox-stabilization/graybox/internal/graybox"
	"github.com/graybox-stabilization/graybox/internal/harness"
	"github.com/graybox-stabilization/graybox/internal/lamport"
	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/ra"
	"github.com/graybox-stabilization/graybox/internal/ring"
	"github.com/graybox-stabilization/graybox/internal/seeded"
	"github.com/graybox-stabilization/graybox/internal/sim"
	"github.com/graybox-stabilization/graybox/internal/synth"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/tokenring"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// BenchmarkFig1Counterexample is E1: decide all four Figure-1 queries.
func BenchmarkFig1Counterexample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, c := gb.Fig1A(), gb.Fig1C()
		if r := gb.Implements(c, a); !r.Holds {
			b.Fatal("fig1 implements broke")
		}
		if ok, _ := gb.SelfStabilizing(a); !ok {
			b.Fatal("fig1 self-stabilization broke")
		}
		if ok, _ := gb.StabilizingTo(c, a); ok {
			b.Fatal("fig1 counterexample broke")
		}
		if r := gb.EverywhereImplements(c, a); r.Holds {
			b.Fatal("fig1 everywhere broke")
		}
	}
}

// stabilizationRun is one E2/E3 measurement: wrapped system, mixed fault
// bursts, monitored convergence.
func stabilizationRun(b *testing.B, algo harness.Algo) {
	b.Helper()
	var convSum, runs int64
	for i := 0; i < b.N; i++ {
		r := harness.Run(harness.RunConfig{
			Algo: algo, N: 4,
			Seed: int64(i), FaultSeed: int64(i) + 1000,
			Delta:      5,
			FaultTimes: []int64{200, 300}, FaultsPerBurst: 10,
			MaxRequests: 30,
			Horizon:     20000,
			Monitor:     true,
		})
		if !r.Converged {
			b.Fatalf("seed %d did not converge: %+v", i, r)
		}
		convSum += r.ConvergenceTime
		runs++
	}
	b.ReportMetric(float64(convSum)/float64(runs), "conv-ticks/run")
}

// BenchmarkStabilizeRA is E2 (Theorem 8 on Ricart–Agrawala).
func BenchmarkStabilizeRA(b *testing.B) { stabilizationRun(b, harness.RA) }

// BenchmarkStabilizeLamport is E3 (Corollary 11 on Lamport ME).
func BenchmarkStabilizeLamport(b *testing.B) { stabilizationRun(b, harness.Lamport) }

// BenchmarkDeadlockRecovery is E4: break the §4 deadlock with W'.
func BenchmarkDeadlockRecovery(b *testing.B) {
	var latSum int64
	for i := 0; i < b.N; i++ {
		r := harness.Run(harness.RunConfig{
			Algo: harness.RA, N: 4,
			Seed:          int64(i),
			Delta:         5,
			DeadlockFault: true,
			Horizon:       20000,
		})
		if r.FirstEntryAfterFault < 0 {
			b.Fatalf("seed %d: wrapper failed to break the deadlock", i)
		}
		latSum += r.FirstEntryAfterFault - r.LastFault
	}
	b.ReportMetric(float64(latSum)/float64(b.N), "recovery-ticks/run")
}

// BenchmarkTimeoutSweep is E5: δ against recovery latency and steady-state
// overhead.
func BenchmarkTimeoutSweep(b *testing.B) {
	for _, delta := range []int64{0, 5, 20, 100} {
		delta := delta
		b.Run(benchName("delta", delta), func(b *testing.B) {
			var lat, wrapMsgs, entries int64
			for i := 0; i < b.N; i++ {
				r := harness.Run(harness.RunConfig{
					Algo: harness.RA, N: 4, Seed: int64(i),
					Delta:         delta,
					DeadlockFault: true,
					Horizon:       20000,
				})
				lat += r.FirstEntryAfterFault - r.LastFault
				clean := harness.Run(harness.RunConfig{
					Algo: harness.RA, N: 4, Seed: int64(i), Delta: delta,
				})
				wrapMsgs += int64(clean.WrapperMsgs)
				entries += int64(clean.Entries)
			}
			b.ReportMetric(float64(lat)/float64(b.N), "recovery-ticks/run")
			if entries > 0 {
				b.ReportMetric(float64(wrapMsgs)/float64(entries), "wrapper-msgs/entry")
			}
		})
	}
}

// BenchmarkInterferenceFreedom is E6: fault-free runs with and without the
// wrapper must agree on everything but wrapper traffic.
func BenchmarkInterferenceFreedom(b *testing.B) {
	for _, delta := range []int64{harness.NoWrapper, 10} {
		delta := delta
		name := "wrapped"
		if delta == harness.NoWrapper {
			name = "bare"
		}
		b.Run(name, func(b *testing.B) {
			var entries int64
			for i := 0; i < b.N; i++ {
				r := harness.Run(harness.RunConfig{
					Algo: harness.RA, N: 5, Seed: int64(i),
					Delta:   delta,
					Monitor: true,
				})
				if r.Violations != 0 || len(r.Starved) != 0 {
					b.Fatalf("seed %d: fault-free run not clean", i)
				}
				entries += int64(r.Entries)
			}
			b.ReportMetric(float64(entries)/float64(b.N), "entries/run")
		})
	}
}

// BenchmarkLspecImpliesTME is E7: monitored fault-free runs of both
// programs stay violation-free.
func BenchmarkLspecImpliesTME(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, algo := range []harness.Algo{harness.RA, harness.Lamport} {
			r := harness.Run(harness.RunConfig{
				Algo: algo, N: 4, Seed: int64(i),
				Delta:   harness.NoWrapper,
				Monitor: true,
			})
			if r.Violations != 0 {
				b.Fatalf("%v seed %d: %d violations", algo, i, r.Violations)
			}
		}
	}
}

// BenchmarkScalability is E8: wrapper cost across system sizes.
func BenchmarkScalability(b *testing.B) {
	for _, n := range []int{3, 5, 8, 12} {
		n := n
		b.Run(benchName("n", int64(n)), func(b *testing.B) {
			var wrapMsgs, entries int64
			for i := 0; i < b.N; i++ {
				r := harness.Run(harness.RunConfig{
					Algo: harness.RA, N: n,
					Seed: int64(i), FaultSeed: int64(i) + 4000,
					Delta:      10,
					FaultTimes: []int64{200}, FaultsPerBurst: 2 * n,
					MaxRequests: 20,
				})
				wrapMsgs += int64(r.WrapperMsgs)
				entries += int64(r.Entries)
			}
			if entries > 0 {
				b.ReportMetric(float64(wrapMsgs)/float64(entries), "wrapper-msgs/entry")
			}
		})
	}
}

// BenchmarkSynthesis is E9: synthesize and verify recovery strategies on
// random 64-state specifications.
func BenchmarkSynthesis(b *testing.B) {
	rng := seeded.New(2001)
	for i := 0; i < b.N; i++ {
		a := gb.Random(rng, "a", 64, 2.0)
		st, err := synth.Synthesize(a, synth.AllCandidates(64))
		if err != nil {
			b.Fatal(err)
		}
		if ok, _ := gb.StabilizingTo(st.Wrapped(a), a); !ok {
			b.Fatal("synthesized wrapper not stabilizing")
		}
	}
}

// BenchmarkWhiteboxBaseline is E10: Dijkstra's token ring converging from
// random corruption — the whitebox comparator.
func BenchmarkWhiteboxBaseline(b *testing.B) {
	var moves int64
	for i := 0; i < b.N; i++ {
		s := tokenring.NewSim(tokenring.SimConfig{N: 8, Seed: int64(i)})
		s.CorruptAll()
		m, ok := s.Converge(1 << 20)
		if !ok {
			b.Fatal("token ring did not converge")
		}
		moves += int64(m)
	}
	b.ReportMetric(float64(moves)/float64(b.N), "moves/run")
}

// BenchmarkTokenCirculation is E11: the second case study's headline —
// regeneration recovering a dead ring.
func BenchmarkTokenCirculation(b *testing.B) {
	var latSum int64
	for i := 0; i < b.N; i++ {
		s := ring.NewSim(ring.SimConfig{
			N: 6, Seed: int64(i),
			NewNode:      func(id, n int) ring.Node { return ring.NewEager(id, n, 2) },
			WrapperDelta: 25,
		})
		s.Run(50)
		s.DropAllInFlight()
		s.StealToken()
		faultAt := s.Now()
		before := 0
		for _, a := range s.Metrics().Accepts {
			before += a
		}
		for s.Now() < faultAt+3000 {
			s.Tick()
			total := 0
			for _, a := range s.Metrics().Accepts {
				total += a
			}
			if total > before {
				break
			}
		}
		if s.Metrics().Regenerations == 0 {
			b.Fatal("ring never recovered")
		}
		latSum += s.Now() - faultAt
	}
	b.ReportMetric(float64(latSum)/float64(b.N), "recovery-ticks/run")
}

// BenchmarkRefinementAblation is E12: refined vs unrefined W overhead on
// the deadlock scenario.
func BenchmarkRefinementAblation(b *testing.B) {
	for _, unrefined := range []bool{false, true} {
		unrefined := unrefined
		name := "refined"
		if unrefined {
			name = "unrefined"
		}
		b.Run(name, func(b *testing.B) {
			var msgs int64
			for i := 0; i < b.N; i++ {
				r := harness.Run(harness.RunConfig{
					Algo: harness.RA, N: 4, Seed: int64(i),
					Delta: 5, Unrefined: unrefined,
					DeadlockFault: true, Horizon: 20000,
				})
				if r.EntriesAfterFault == 0 {
					b.Fatal("no recovery")
				}
				msgs += int64(r.WrapperMsgs)
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "wrapper-msgs/run")
		})
	}
}

// BenchmarkLevel1Ablation is E13: PhaseGuard repairing sub-Lspec phase
// corruption.
func BenchmarkLevel1Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.New(sim.Config{
			N: 4, Seed: int64(i),
			NewNode:     func(id, n int) tme.Node { return ra.New(id, n) },
			Workload:    true,
			MaxRequests: 20,
			Level1:      wrapper.PhaseGuard{},
			NewWrapper: func(int) wrapper.Level2 {
				return wrapper.NewTimed(5)
			},
		})
		s.At(200, func(s *sim.Sim) {
			for id := 0; id < s.N(); id++ {
				if c, ok := s.Node(id).(tme.Corruptible); ok {
					c.Corrupt(tme.Corruption{Phase: tme.Phase(7)})
				}
			}
		})
		s.Run(20000)
		for id := 0; id < s.N(); id++ {
			if !s.Node(id).Phase().Valid() {
				b.Fatal("invalid phase survived PhaseGuard")
			}
		}
	}
}

// --- Microbenchmarks of the substrates ---

// BenchmarkWrapperGuard measures one W evaluation over a hungry view.
func BenchmarkWrapperGuard(b *testing.B) {
	nd := ra.New(0, 16)
	nd.RequestCS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if msgs := wrapper.W(nd); len(msgs) == 0 {
			b.Fatal("guard unexpectedly closed")
		}
	}
}

// BenchmarkSimThroughput measures raw simulator event throughput on a
// fault-free 8-process workload.
func BenchmarkSimThroughput(b *testing.B) {
	var events int64
	for i := 0; i < b.N; i++ {
		s := sim.New(sim.Config{
			N: 8, Seed: int64(i),
			NewNode:     func(id, n int) tme.Node { return ra.New(id, n) },
			Workload:    true,
			MaxRequests: 20,
		})
		events += s.Run(1 << 20)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

// BenchmarkObsOverhead quantifies the observability tax on the raw
// simulator: "disabled" runs with a nil obs bundle, where every instrument
// call is a nil-receiver no-op — this is the path covered by the <2%
// overhead budget — and "enabled" runs with a live registry, convergence
// tracker, and trace ring.
func BenchmarkObsOverhead(b *testing.B) {
	workload := func(b *testing.B, mk func() *obs.Obs) {
		var events int64
		for i := 0; i < b.N; i++ {
			s := sim.New(sim.Config{
				N: 8, Seed: int64(i),
				NewNode:     func(id, n int) tme.Node { return ra.New(id, n) },
				Workload:    true,
				MaxRequests: 20,
				Obs:         mk(),
			})
			events += s.Run(1 << 20)
		}
		b.ReportMetric(float64(events)/float64(b.N), "events/run")
	}
	b.Run("disabled", func(b *testing.B) {
		workload(b, func() *obs.Obs { return nil })
	})
	b.Run("enabled", func(b *testing.B) {
		workload(b, func() *obs.Obs { return obs.New(obs.Options{}) })
	})
	b.Run("enabled-trace", func(b *testing.B) {
		workload(b, func() *obs.Obs { return obs.New(obs.Options{TraceCapacity: 4096}) })
	})
}

// BenchmarkNodeDeliver measures one RA request delivery round-trip.
func BenchmarkNodeDeliver(b *testing.B) {
	sender := ra.New(0, 2)
	msgs := sender.RequestCS()
	receiver := ra.New(1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		receiver.Deliver(msgs[0])
	}
}

// BenchmarkLamportInsert measures queue insertion under the one-entry-per-
// process discipline.
func BenchmarkLamportInsert(b *testing.B) {
	nd := lamport.New(0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := 1 + i%63
		nd.Deliver(tme.Message{
			Kind: tme.Request,
			TS:   ltime.Timestamp{Clock: uint64(i), PID: from},
			From: from, To: 0,
		})
	}
}

// BenchmarkTimestampLess measures the total-order comparison.
func BenchmarkTimestampLess(b *testing.B) {
	x := ltime.Timestamp{Clock: 3, PID: 1}
	y := ltime.Timestamp{Clock: 3, PID: 2}
	for i := 0; i < b.N; i++ {
		if !x.Less(y) {
			b.Fatal("order broke")
		}
	}
}

// BenchmarkFIFOSendRecv measures the channel substrate.
func BenchmarkFIFOSendRecv(b *testing.B) {
	var q channel.FIFO[tme.Message]
	m := tme.Message{Kind: tme.Request, From: 0, To: 1}
	for i := 0; i < b.N; i++ {
		q.Send(m)
		if _, ok := q.Recv(); !ok {
			b.Fatal("recv failed")
		}
	}
}

// BenchmarkStabilizingToLarge measures the model checker on a 4096-state
// random system.
func BenchmarkStabilizingToLarge(b *testing.B) {
	rng := seeded.New(5)
	a := gb.Random(rng, "a", 4096, 2.0)
	c := gb.RandomSub(rng, "c", a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gb.StabilizingTo(c, a)
	}
}

func benchName(prefix string, v int64) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "=0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + "=" + string(buf[i:])
}
