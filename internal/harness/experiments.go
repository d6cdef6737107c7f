package harness

import (
	"fmt"

	"github.com/graybox-stabilization/graybox/internal/fault"
	"github.com/graybox-stabilization/graybox/internal/graybox"
	"github.com/graybox-stabilization/graybox/internal/ring"
	"github.com/graybox-stabilization/graybox/internal/seeded"
	"github.com/graybox-stabilization/graybox/internal/sim"
	"github.com/graybox-stabilization/graybox/internal/synth"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/tokenring"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// Scale sizes an experiment sweep: Quick for tests and CI, Full for the
// paper-reproduction run of cmd/experiments.
type Scale int

// Sweep scales.
const (
	Quick Scale = iota + 1
	Full
)

func (s Scale) seeds() int {
	if s == Full {
		return 15
	}
	return 5
}

func (s Scale) ns() []int {
	if s == Full {
		return []int{3, 5, 8, 12, 16, 20}
	}
	return []int{3, 5}
}

func (s Scale) deltas() []int64 {
	if s == Full {
		return []int64{0, 1, 2, 5, 10, 20, 50, 100}
	}
	return []int64{0, 5, 50}
}

// Fig1 runs experiment E1: the Figure 1 counterexample, decided by the
// model checker. Rows are the three formal queries with their outcomes.
func Fig1() *Table {
	a, c := graybox.Fig1A(), graybox.Fig1C()
	t := &Table{
		Title:  "E1 (Figure 1): [C⇒A]_init ∧ A self-stabilizing ⇏ C stabilizing",
		Header: []string{"query", "result", "witness"},
	}
	r := graybox.Implements(c, a)
	t.AddRow("[C ⇒ A]_init", fmt.Sprint(r.Holds), "-")
	okA, _ := graybox.SelfStabilizing(a)
	t.AddRow("A stabilizing to A", fmt.Sprint(okA), "-")
	okC, l := graybox.StabilizingTo(c, a)
	witness := "-"
	if l != nil {
		witness = l.String()
	}
	t.AddRow("C stabilizing to A", fmt.Sprint(okC), witness)
	re := graybox.EverywhereImplements(c, a)
	t.AddRow("[C ⇒ A] (everywhere)", fmt.Sprint(re.Holds), re.String())
	t.Notes = append(t.Notes,
		"expected: true, true, false, false — exactly the paper's Figure 1")
	return t
}

// Stabilization runs E2/E3: convergence of algo ▯ W' under mixed fault
// bursts, swept over system size, versus the unwrapped baseline. ok is the
// claim the wrapper carries: every wrapped row converges on every seed with
// no run starved, and every unwrapped row has a run that does not converge.
func Stabilization(algo Algo, scale Scale) (*Table, bool) {
	t := &Table{
		Title: fmt.Sprintf("E%d (Thm 8%s): stabilization of %v under fault bursts",
			map[Algo]int{RA: 2, Lamport: 3}[algo],
			map[Algo]string{RA: "", Lamport: ", Cor 11"}[algo], algo),
		Header: []string{"n", "wrapper", "converged", "mean conv time", "max conv time",
			"mean entries after fault", "runs starved"},
	}
	ok := true
	for _, n := range scale.ns() {
		for _, delta := range []int64{NoWrapper, 5} {
			var (
				converged, starved int
				sumConv, maxConv   int64
				sumEntries         int
			)
			seeds := scale.seeds()
			n, delta := n, delta
			results := ParMap(seeds, func(seed int) RunResult {
				return Run(RunConfig{
					Algo: algo, N: n,
					Seed: int64(seed), FaultSeed: int64(seed) + 1000,
					Delta:      delta,
					FaultTimes: []int64{200, 300, 400}, FaultsPerBurst: 3 * n,
					// Enough post-fault workload that every process pair
					// exchanges messages again: corrupted local copies
					// are corrected by Request/Reply Spec traffic, per
					// the Lemma 7 proof sketch.
					MaxRequests: 40,
					Horizon:     40000,
					Monitor:     true,
				})
			})
			for _, r := range results {
				if r.Converged {
					converged++
				}
				if len(r.Starved) > 0 {
					starved++
				}
				sumConv += r.ConvergenceTime
				if r.ConvergenceTime > maxConv {
					maxConv = r.ConvergenceTime
				}
				sumEntries += r.EntriesAfterFault
			}
			wname := "W'(δ=5)"
			if delta == NoWrapper {
				wname = "none"
				ok = ok && converged < seeds
			} else {
				ok = ok && converged == seeds && starved == 0
			}
			t.AddRow(fmt.Sprint(n), wname,
				fmt.Sprintf("%d/%d", converged, seeds),
				fmt.Sprintf("%.1f", float64(sumConv)/float64(seeds)),
				fmt.Sprint(maxConv),
				fmt.Sprintf("%.1f", float64(sumEntries)/float64(seeds)),
				fmt.Sprint(starved))
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: wrapped rows converge on every seed with bounded convergence time;",
		"unwrapped rows starve on a substantial fraction of seeds (faults leave permanent inconsistency)",
		fmt.Sprintf("verdict: ok=%v (every W'(δ=5) row converged on every seed with 0 starved; every unwrapped row has a run that did not converge)", ok))
	return t, ok
}

// Deadlock runs E4: the §4 mutual-inconsistency deadlock — all in-flight
// messages dropped while requests are outstanding. ok is the claim the
// armed W' deadline carries, for both protocols: no run recovers without a
// wrapper, every run recovers with W'(δ=0) and with W'(δ=10), and the mean
// recovery latency at δ=0 is below the one at δ=10.
func Deadlock(scale Scale) (*Table, bool) {
	t := &Table{
		Title: "E4 (§4): deadlock without W, recovery with W'",
		Header: []string{"algo", "wrapper", "recovered runs",
			"mean recovery latency", "max recovery latency"},
	}
	ok := true
	seeds := scale.seeds()
	for _, algo := range []Algo{RA, Lamport} {
		var eagerMean float64
		for _, delta := range []int64{NoWrapper, 0, 10} {
			var recovered int
			var sumLat, maxLat int64
			for seed := 0; seed < seeds; seed++ {
				r := Run(RunConfig{
					Algo: algo, N: 4,
					Seed:          int64(seed),
					Delta:         delta,
					DeadlockFault: true,
					Horizon:       30000,
				})
				if r.EntriesAfterFault > 0 {
					recovered++
					lat := r.FirstEntryAfterFault - r.LastFault
					sumLat += lat
					if lat > maxLat {
						maxLat = lat
					}
				}
			}
			wname := fmt.Sprintf("W'(δ=%d)", delta)
			if delta == NoWrapper {
				wname = "none"
			}
			mean := "-"
			if recovered > 0 {
				mean = fmt.Sprintf("%.1f", float64(sumLat)/float64(recovered))
			}
			t.AddRow(algo.String(), wname,
				fmt.Sprintf("%d/%d", recovered, seeds), mean, fmt.Sprint(maxLat))
			switch delta {
			case NoWrapper:
				ok = ok && recovered == 0
			case 0:
				ok = ok && recovered == seeds
				eagerMean = float64(sumLat) / float64(seeds)
			default:
				ok = ok && recovered == seeds && eagerMean < float64(sumLat)/float64(seeds)
			}
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: 0 recoveries without the wrapper (deadlock is permanent);",
		"all runs recover with W', with latency growing in δ",
		fmt.Sprintf("verdict: ok=%v (per protocol: none recovers 0 runs, W'(δ=0) and W'(δ=10) recover all, mean latency δ=0 < δ=10)", ok))
	return t, ok
}

// TimeoutSweep runs E5: δ trades recovery latency against steady-state
// wrapper message overhead; δ=0 is the eager W.
func TimeoutSweep(algo Algo, scale Scale) *Table {
	t := &Table{
		Title: fmt.Sprintf("E5 (W' tuning): timeout δ sweep on %v", algo),
		Header: []string{"δ", "mean recovery latency", "wrapper msgs (faulty)",
			"wrapper msgs (fault-free)", "wrapper msgs/entry (fault-free)"},
	}
	seeds := scale.seeds()
	for _, delta := range scale.deltas() {
		var sumLat int64
		var recovered, faultyWrap int
		var cleanWrap, cleanEntries int
		for seed := 0; seed < seeds; seed++ {
			// Faulty run: deliberate deadlock, measure recovery.
			r := Run(RunConfig{
				Algo: algo, N: 4,
				Seed:          int64(seed),
				Delta:         delta,
				DeadlockFault: true,
				Horizon:       30000,
			})
			if r.EntriesAfterFault > 0 {
				recovered++
				sumLat += r.FirstEntryAfterFault - r.LastFault
			}
			faultyWrap += r.WrapperMsgs
			// Fault-free run: measure steady-state overhead.
			c := Run(RunConfig{
				Algo: algo, N: 4,
				Seed:  int64(seed),
				Delta: delta,
			})
			cleanWrap += c.WrapperMsgs
			cleanEntries += c.Entries
		}
		mean := "-"
		if recovered > 0 {
			mean = fmt.Sprintf("%.1f", float64(sumLat)/float64(recovered))
		}
		perEntry := "-"
		if cleanEntries > 0 {
			perEntry = fmt.Sprintf("%.2f", float64(cleanWrap)/float64(cleanEntries))
		}
		t.AddRow(fmt.Sprint(delta), mean,
			fmt.Sprint(faultyWrap/seeds), fmt.Sprint(cleanWrap/seeds), perEntry)
	}
	t.Notes = append(t.Notes,
		"expected shape: recovery latency grows roughly linearly in δ;",
		"steady-state wrapper messages fall sharply as δ grows (the paper's tuning claim);",
		"δ=0 reproduces the eager W exactly")
	return t
}

// Interference runs E6 (Lemma 6): in fault-free runs the wrapper changes no
// observable behaviour — identical entries, zero violations — only extra
// messages.
func Interference(scale Scale) *Table {
	t := &Table{
		Title: "E6 (Lemma 6): interference freedom in fault-free runs",
		Header: []string{"algo", "wrapper", "entries", "violations",
			"starved", "program msgs", "wrapper msgs"},
	}
	for _, algo := range []Algo{RA, Lamport} {
		for _, delta := range []int64{NoWrapper, 0, 10} {
			var entries, violations, starved, pmsgs, wmsgs int
			seeds := scale.seeds()
			for seed := 0; seed < seeds; seed++ {
				r := Run(RunConfig{
					Algo: algo, N: 5,
					Seed:    int64(seed),
					Delta:   delta,
					Monitor: true,
				})
				entries += r.Entries
				violations += r.Violations
				starved += len(r.Starved)
				pmsgs += r.ProgramMsgs
				wmsgs += r.WrapperMsgs
			}
			wname := fmt.Sprintf("W'(δ=%d)", delta)
			if delta == NoWrapper {
				wname = "none"
			}
			t.AddRow(algo.String(), wname, fmt.Sprint(entries),
				fmt.Sprint(violations), fmt.Sprint(starved),
				fmt.Sprint(pmsgs), fmt.Sprint(wmsgs))
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: identical entry counts and zero violations across wrapper settings;",
		"the wrapper's only observable effect in legitimate runs is its own request traffic")
	return t
}

// LspecImpliesTME runs E7 (Thm 5): fault-free monitored runs of both
// programs satisfy every Lspec component and, with it, ME1/ME2/ME3.
func LspecImpliesTME(scale Scale) *Table {
	t := &Table{
		Title:  "E7 (Thm 5): Lspec ⇒ TME_Spec on monitored runs",
		Header: []string{"algo", "runs", "Lspec violations", "ME violations", "open obligations"},
	}
	for _, algo := range []Algo{RA, Lamport} {
		var lv, mv, open, runs int
		seeds := scale.seeds()
		for seed := 0; seed < seeds; seed++ {
			r := Run(RunConfig{
				Algo: algo, N: 4,
				Seed:    int64(seed),
				Delta:   NoWrapper,
				Monitor: true,
			})
			runs++
			// Violations conflates Lspec and ME monitors; for this table
			// both must be zero, so the split is informational only.
			lv += r.Violations
			mv += r.Violations
			open += len(r.Starved)
		}
		t.AddRow(algo.String(), fmt.Sprint(runs), fmt.Sprint(lv), fmt.Sprint(mv), fmt.Sprint(open))
	}
	t.Notes = append(t.Notes,
		"expected: all-zero rows — programs satisfying Lspec satisfy TME_Spec (Theorem 5)")
	return t
}

// Scalability runs E8: wrapper overhead as a function of system size and of
// the implementation behind the same SpecView (the graybox scalability and
// reusability argument of §1).
func Scalability(scale Scale) *Table {
	t := &Table{
		Title: "E8 (§1): wrapper cost scales with the spec, not the implementation",
		Header: []string{"n", "algo", "wrapper msgs/entry", "program msgs/entry",
			"converged"},
	}
	for _, n := range scale.ns() {
		for _, algo := range []Algo{RA, Lamport} {
			var wm, pm, entries, converged int
			seeds := scale.seeds()
			for seed := 0; seed < seeds; seed++ {
				r := Run(RunConfig{
					Algo: algo, N: n,
					Seed: int64(seed), FaultSeed: int64(seed) + 4000,
					Delta:      10,
					FaultTimes: []int64{200}, FaultsPerBurst: 2 * n,
					// Enough workload that the fault lands mid-run on
					// every seed (otherwise "converged" is vacuous).
					MaxRequests: 40,
					Horizon:     40000,
				})
				wm += r.WrapperMsgs
				pm += r.ProgramMsgs
				entries += r.Entries
				if r.Converged {
					converged++
				}
			}
			wPer, pPer := "-", "-"
			if entries > 0 {
				wPer = fmt.Sprintf("%.2f", float64(wm)/float64(entries))
				pPer = fmt.Sprintf("%.2f", float64(pm)/float64(entries))
			}
			t.AddRow(fmt.Sprint(n), algo.String(), wPer, pPer,
				fmt.Sprintf("%d/%d", converged, seeds))
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: per-entry wrapper cost is nearly identical for both implementations at",
		"each n (the wrapper sees only the spec); it grows ~O(n²) — a hungry period lasts Θ(n)",
		"service rounds and each W' firing pings up to n−1 peers — while the programs' own",
		"per-entry cost grows ~O(n)")
	return t
}

// Synthesis runs E9 (§6 future work): synthesized recovery strategies match
// the hand-designed wrapper's guarantees on random finite specifications.
func Synthesis(scale Scale) *Table {
	t := &Table{
		Title: "E9 (§6): synthesized graybox wrappers on finite specs",
		Header: []string{"states", "specs", "synth ok", "wrapped stabilizing",
			"reusable on impls", "mean recovery steps"},
	}
	rng := seeded.New(2001)
	sizes := []int{4, 8, 16}
	if scale == Full {
		sizes = []int{4, 8, 16, 32, 64, 128}
	}
	perSize := scale.seeds() * 4
	for _, n := range sizes {
		var ok, stab, reuse, specs int
		var sumDist, distCount int
		for i := 0; i < perSize; i++ {
			a := graybox.Random(rng, "a", n, 1.8)
			specs++
			st, err := synth.Synthesize(a, synth.AllCandidates(n))
			if err != nil {
				continue
			}
			ok++
			if s, _ := graybox.StabilizingTo(st.Wrapped(a), a); s {
				stab++
			}
			c := graybox.RandomSub(rng, "c", a)
			if s, _ := graybox.StabilizingTo(st.Wrapped(c), a); s {
				reuse++
			}
			sumDist += st.MaxDistance()
			distCount++
		}
		mean := "-"
		if distCount > 0 {
			mean = fmt.Sprintf("%.2f", float64(sumDist)/float64(distCount))
		}
		t.AddRow(fmt.Sprint(n), fmt.Sprint(specs), fmt.Sprint(ok),
			fmt.Sprintf("%d/%d", stab, ok), fmt.Sprintf("%d/%d", reuse, ok), mean)
	}
	t.Notes = append(t.Notes,
		"expected: synthesis succeeds on every spec (unconstrained candidates),",
		"every wrapped spec and wrapped implementation is stabilizing, recovery ≤ diameter")
	return t
}

// WhiteboxBaseline runs E10: Dijkstra's K-state token ring — the canonical
// whitebox stabilization design — against the graybox-wrapped RA system
// under comparable transient state corruption. Both stabilize; the contrast
// the paper draws is in the design input (implementation vs specification)
// and hence reusability, not in whether convergence happens.
func WhiteboxBaseline(scale Scale) *Table {
	t := &Table{
		Title: "E10 (baseline, §1/§6): whitebox token ring vs graybox-wrapped RA",
		Header: []string{"n", "whitebox conv (moves, mean/max)",
			"graybox conv (ticks, mean/max)", "whitebox converged", "graybox converged"},
	}
	seeds := scale.seeds()
	for _, n := range scale.ns() {
		var (
			wbSum, wbMax int
			wbOK         int
			gbSum, gbMax int64
			gbOK         int
		)
		for seed := 0; seed < seeds; seed++ {
			ts := tokenring.NewSim(tokenring.SimConfig{N: n, Seed: int64(seed)})
			ts.CorruptAll()
			moves, ok := ts.Converge(100 * n * n * (n + 1))
			if ok {
				wbOK++
				wbSum += moves
				if moves > wbMax {
					wbMax = moves
				}
			}

			r := Run(RunConfig{
				Algo: RA, N: n,
				Seed: int64(seed), FaultSeed: int64(seed) + 5000,
				Delta:      5,
				FaultTimes: []int64{200}, FaultsPerBurst: n,
				Mix:         fault.Mix{State: 1}, // state corruption only, like the ring
				MaxRequests: 40,
				Horizon:     40000,
				Monitor:     true,
			})
			if r.Converged {
				gbOK++
				gbSum += r.ConvergenceTime
				if r.ConvergenceTime > gbMax {
					gbMax = r.ConvergenceTime
				}
			}
		}
		wbMean, gbMean := "-", "-"
		if wbOK > 0 {
			wbMean = fmt.Sprintf("%.1f/%d", float64(wbSum)/float64(wbOK), wbMax)
		}
		if gbOK > 0 {
			gbMean = fmt.Sprintf("%.1f/%d", float64(gbSum)/float64(gbOK), gbMax)
		}
		t.AddRow(fmt.Sprint(n), wbMean, gbMean,
			fmt.Sprintf("%d/%d", wbOK, seeds), fmt.Sprintf("%d/%d", gbOK, seeds))
	}
	t.Notes = append(t.Notes,
		"both designs converge on every seed; units differ (daemon moves vs virtual ticks) — the",
		"comparison is qualitative: the ring's stabilization is welded to one implementation,",
		"the wrapper's applies to every everywhere-implementation of Lspec")
	return t
}

// TokenCirculation runs E11: the graybox method re-applied to a second
// problem (internal/ring) — token circulation with a regeneration wrapper.
// One wrapper, two structurally different implementations (eager and lazy),
// identical fault schedule: token loss at t=50.
func TokenCirculation(scale Scale) *Table {
	t := &Table{
		Title: "E11 (method reuse): graybox token circulation on a ring",
		Header: []string{"impl", "wrapper", "recovered runs", "mean recovery ticks",
			"regenerations", "discards"},
	}
	seeds := scale.seeds()
	impls := map[string]func(id, n int) ring.Node{
		"eager": func(id, n int) ring.Node { return ring.NewEager(id, n, 2) },
		"lazy":  func(id, n int) ring.Node { return ring.NewLazy(id, n, 4, 2) },
	}
	for _, name := range []string{"eager", "lazy"} {
		factory := impls[name]
		for _, delta := range []int{0, 25} {
			var recovered, regens, discards int
			var latSum int64
			for seed := 0; seed < seeds; seed++ {
				s := ring.NewSim(ring.SimConfig{
					N: 6, Seed: int64(seed), NewNode: factory, WrapperDelta: delta,
				})
				s.Run(50)
				s.DropAllInFlight()
				s.StealToken()
				faultAt := s.Now()
				before := 0
				for _, a := range s.Metrics().Accepts {
					before += a
				}
				// Advance until circulation resumes or the horizon.
				recoveredAt := int64(-1)
				for s.Now() < faultAt+3000 {
					s.Tick()
					total := 0
					for _, a := range s.Metrics().Accepts {
						total += a
					}
					if total > before {
						recoveredAt = s.Now()
						break
					}
				}
				if recoveredAt >= 0 {
					recovered++
					latSum += recoveredAt - faultAt
				}
				regens += s.Metrics().Regenerations
				discards += s.Metrics().Discards
			}
			wname := fmt.Sprintf("regen(δ=%d)", delta)
			if delta == 0 {
				wname = "none"
			}
			mean := "-"
			if recovered > 0 {
				mean = fmt.Sprintf("%.1f", float64(latSum)/float64(recovered))
			}
			t.AddRow(name, wname, fmt.Sprintf("%d/%d", recovered, seeds),
				mean, fmt.Sprint(regens), fmt.Sprint(discards))
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: 0 recoveries without the wrapper (a lost token is permanent);",
		"all runs recover with the regenerator, within ~δ ticks, for BOTH implementations —",
		"the §2.2 method carries to a new problem without touching implementation internals")
	return t
}

// RefinementAblation runs E12: the paper's §4 refinement of W — send only
// to processes whose local copy is stale, instead of to everyone — ablated.
// Both variants stabilize (the refinement is an optimization, not a
// correctness fix); the refined wrapper sends strictly fewer messages. ok
// is that claim: both variants recover every run with equal mean recovery
// latency, and the refined one sends strictly fewer wrapper messages in
// both message columns.
func RefinementAblation(scale Scale) (*Table, bool) {
	t := &Table{
		Title: "E12 (ablation, §4): refined vs unrefined W",
		Header: []string{"variant", "recovered runs", "mean recovery latency",
			"wrapper msgs (deadlock run)", "wrapper msgs (fault-free)"},
	}
	seeds := scale.seeds()
	type variant struct {
		recovered, faultyMsgs, cleanMsgs int
		meanLat                          float64
	}
	var v [2]variant // refined, unrefined
	for k, unrefined := range []bool{false, true} {
		var recovered, faultyMsgs, cleanMsgs int
		var latSum int64
		for seed := 0; seed < seeds; seed++ {
			r := Run(RunConfig{
				Algo: RA, N: 4, Seed: int64(seed),
				Delta: 5, Unrefined: unrefined,
				DeadlockFault: true, Horizon: 30000,
			})
			if r.EntriesAfterFault > 0 {
				recovered++
				latSum += r.FirstEntryAfterFault - r.LastFault
			}
			faultyMsgs += r.WrapperMsgs
			c := Run(RunConfig{
				Algo: RA, N: 4, Seed: int64(seed),
				Delta: 5, Unrefined: unrefined,
			})
			cleanMsgs += c.WrapperMsgs
		}
		name := "refined W"
		if unrefined {
			name = "unrefined W"
		}
		mean := "-"
		v[k] = variant{recovered, faultyMsgs / seeds, cleanMsgs / seeds, -1}
		if recovered > 0 {
			v[k].meanLat = float64(latSum) / float64(recovered)
			mean = fmt.Sprintf("%.1f", v[k].meanLat)
		}
		t.AddRow(name, fmt.Sprintf("%d/%d", recovered, seeds), mean,
			fmt.Sprint(v[k].faultyMsgs), fmt.Sprint(v[k].cleanMsgs))
	}
	ok := v[0].recovered == seeds && v[1].recovered == seeds && v[0].meanLat == v[1].meanLat &&
		v[0].faultyMsgs < v[1].faultyMsgs && v[0].cleanMsgs < v[1].cleanMsgs
	t.Notes = append(t.Notes,
		"expected shape: both variants recover every run with the same latency;",
		"the refined guard sends strictly fewer messages — the paper's refinement is",
		"an overhead optimization, not a correctness change",
		fmt.Sprintf("verdict: ok=%v (both variants recover every run with equal mean latency; refined sends strictly fewer wrapper messages in both columns)", ok))
	return t, ok
}

// Level1Ablation runs E13: faults below the Lspec abstraction (invalid
// phase values, which no everywhere-implementation of Lspec produces) need
// the level-1 wrapper of §2.2 — the level-2 W alone cannot repair them. ok
// is the claim level-1 carries: without PhaseGuard no run recovers and
// some phase stays invalid; with it every run recovers, and no phase is
// invalid at the horizon or even right after the corrupting input, which
// is where level-1 repairs it.
func Level1Ablation(scale Scale) (*Table, bool) {
	t := &Table{
		Title: "E13 (ablation, §2.2): level-1 wrapper under sub-Lspec corruption",
		Header: []string{"level-1 wrapper", "recovered runs",
			"mean entries after fault", "invalid phases at horizon"},
	}
	seeds := scale.seeds()
	ok := true
	for _, withGuard := range []bool{false, true} {
		var recovered, entries, invalid, unrepaired int
		for seed := 0; seed < seeds; seed++ {
			simCfg := sim.Config{
				N: 4, Seed: int64(seed),
				NewNode:     RA.Factory(),
				Workload:    true,
				MaxRequests: 30,
				NewWrapper: func(int) wrapper.Level2 {
					return wrapper.NewTimed(5)
				},
			}
			if withGuard {
				simCfg.Level1 = wrapper.PhaseGuard{}
			}
			s := sim.New(simCfg)
			// Corrupt every phase to an invalid value at t=200.
			s.At(200, func(s *sim.Sim) {
				for i := 0; i < s.N(); i++ {
					if c, ok := s.Node(i).(tme.Corruptible); ok {
						c.Corrupt(tme.Corruption{Phase: tme.Phase(7)})
					}
				}
			})
			// The first observation at t=200 follows the corrupting
			// closure and its input at every process.
			looked := false
			s.SetObserver(func(s *sim.Sim) {
				if looked || s.Now() < 200 {
					return
				}
				looked = true
				for i := 0; i < s.N(); i++ {
					if !s.Node(i).Phase().Valid() {
						unrepaired++
					}
				}
			})
			s.Run(20000)
			after := 0
			for _, e := range s.Metrics().Entries {
				if e.Time > 200 {
					after++
				}
			}
			if after > 0 {
				recovered++
			}
			entries += after
			for i := 0; i < s.N(); i++ {
				if !s.Node(i).Phase().Valid() {
					invalid++
				}
			}
		}
		name := "none"
		if withGuard {
			name = "PhaseGuard"
			ok = ok && recovered == seeds && invalid == 0 && unrepaired == 0
			t.Notes = append(t.Notes, fmt.Sprintf("PhaseGuard: %d invalid phases right after the corrupting input", unrepaired))
		} else {
			ok = ok && recovered == 0 && invalid > 0
		}
		t.AddRow(name, fmt.Sprintf("%d/%d", recovered, seeds),
			fmt.Sprintf("%.1f", float64(entries)/float64(seeds)),
			fmt.Sprint(invalid))
	}
	t.Notes = append(t.Notes,
		"expected shape: without a level-1 wrapper the invalid phases persist and no",
		"process is served again (W reads phases but cannot write them); with PhaseGuard",
		"every run recovers — the two-level method of §2.2 is load-bearing for faults",
		"below the specification's abstraction",
		fmt.Sprintf("verdict: ok=%v (none: 0 runs recovered, some phase invalid; PhaseGuard: every run recovered, 0 invalid at the corrupting input and at the horizon)", ok))
	return t, ok
}

// UnifiedFaults runs E14: the engine's substrate-agnostic fault surface.
// ONE fault.Mix — the same weighted blend of message loss, duplication,
// corruption, state perturbation, and channel flush — is pushed through
// identical injectors into all three protocol substrates: the TME
// message-passing simulator, the token-circulation ring, and Dijkstra's
// shared-memory token-ring daemon. Each substrate interprets the classes it
// structurally supports (the shared-memory ring has no channels, so only
// state perturbation lands there) and every substrate recovers.
func UnifiedFaults(scale Scale) *Table {
	t := &Table{
		Title: "E14 (unified fault surface): one Mix drives all three substrates",
		Header: []string{"substrate", "faults injected", "recovered runs",
			"mean recovery"},
	}
	mix := fault.Mix{Loss: 2, Dup: 1, Corrupt: 1, State: 2, Flush: 1}
	seeds := scale.seeds()

	// TME mutual exclusion: wrapped RA under fault bursts mid-workload;
	// recovery = critical-section entries resume after the last burst.
	{
		var faults, recovered int
		var entSum int
		for seed := 0; seed < seeds; seed++ {
			s := sim.New(sim.Config{
				N: 4, Seed: int64(seed),
				NewNode:     RA.Factory(),
				Workload:    true,
				MaxRequests: 40,
				NewWrapper:  func(int) wrapper.Level2 { return wrapper.NewTimed(5) },
			})
			in := fault.NewInjector(int64(seed)+1000, mix)
			in.Schedule(s, []int64{200, 300, 400}, 6)
			s.Run(20000)
			after := 0
			for _, e := range s.Metrics().Entries {
				if e.Time > 400 {
					after++
				}
			}
			if after > 0 {
				recovered++
				entSum += after
			}
			faults += in.Count()
		}
		mean := "-"
		if recovered > 0 {
			mean = fmt.Sprintf("%.1f entries", float64(entSum)/float64(recovered))
		}
		t.AddRow("TME (wrapped RA)", fmt.Sprint(faults),
			fmt.Sprintf("%d/%d", recovered, seeds), mean)
	}

	// Token-circulation ring: regenerator-wrapped eager nodes; recovery =
	// token deliveries resume after the bursts.
	{
		var faults, recovered int
		var latSum int64
		for seed := 0; seed < seeds; seed++ {
			s := ring.NewSim(ring.SimConfig{
				N: 6, Seed: int64(seed),
				NewNode:      func(id, n int) ring.Node { return ring.NewEager(id, n, 2) },
				WrapperDelta: 25,
			})
			in := fault.NewInjector(int64(seed)+2000, mix)
			in.Schedule(s, []int64{50, 80}, 4)
			s.Run(100)
			faultAt := s.Now()
			before := 0
			for _, a := range s.Metrics().Accepts {
				before += a
			}
			recoveredAt := int64(-1)
			for s.Now() < faultAt+3000 {
				s.Tick()
				total := 0
				for _, a := range s.Metrics().Accepts {
					total += a
				}
				if total > before {
					recoveredAt = s.Now()
					break
				}
			}
			if recoveredAt >= 0 {
				recovered++
				latSum += recoveredAt - faultAt
			}
			faults += in.Count()
		}
		mean := "-"
		if recovered > 0 {
			mean = fmt.Sprintf("%.1f ticks", float64(latSum)/float64(recovered))
		}
		t.AddRow("ring (regen δ=25)", fmt.Sprint(faults),
			fmt.Sprintf("%d/%d", recovered, seeds), mean)
	}

	// Dijkstra token-ring daemon: shared memory, so of the Mix only state
	// perturbation is applicable; recovery = the ring re-legitimizes.
	{
		var faults, recovered int
		var moveSum int
		for seed := 0; seed < seeds; seed++ {
			n := 5
			s := tokenring.NewSim(tokenring.SimConfig{N: n, Seed: int64(seed)})
			in := fault.NewInjector(int64(seed)+3000, mix)
			in.Schedule(s, []int64{10}, 2*n)
			s.Run(10) // run to just past the burst, then count recovery moves
			start := s.Moves()
			moves, ok := s.Converge(start + 100*n*n*(n+1))
			if ok {
				recovered++
				moveSum += moves - start
			}
			faults += in.Count()
		}
		mean := "-"
		if recovered > 0 {
			mean = fmt.Sprintf("%.1f moves", float64(moveSum)/float64(recovered))
		}
		t.AddRow("tokenring (daemon)", fmt.Sprint(faults),
			fmt.Sprintf("%d/%d", recovered, seeds), mean)
	}

	t.Notes = append(t.Notes,
		"one injector type, one Mix, three substrates behind engine.Surface;",
		"each substrate applies the fault classes its structure supports and",
		"recovers — the fault model is now a property of the engine, not of any",
		"single protocol simulator")
	return t
}

// Experiment is one table of EXPERIMENTS.md.
type Experiment struct {
	// ID is the experiment's index, "E1" to "E18".
	ID string
	// Run builds the table at the given scale. ok is false only when an
	// experiment that judges its own claim (E2, E3, E4, E12, E13, E17, and
	// E18's parity gate) finds it broken; each renders its verdict as the
	// table's last note.
	Run func(Scale) (t *Table, ok bool)
}

// Experiments lists every experiment, in index order.
var Experiments = []Experiment{
	{"E1", func(Scale) (*Table, bool) { return Fig1(), true }},
	{"E2", func(s Scale) (*Table, bool) { return Stabilization(RA, s) }},
	{"E3", func(s Scale) (*Table, bool) { return Stabilization(Lamport, s) }},
	{"E4", Deadlock},
	{"E5", func(s Scale) (*Table, bool) { return TimeoutSweep(RA, s), true }},
	{"E6", func(s Scale) (*Table, bool) { return Interference(s), true }},
	{"E7", func(s Scale) (*Table, bool) { return LspecImpliesTME(s), true }},
	{"E8", func(s Scale) (*Table, bool) { return Scalability(s), true }},
	{"E9", func(s Scale) (*Table, bool) { return Synthesis(s), true }},
	{"E10", func(s Scale) (*Table, bool) { return WhiteboxBaseline(s), true }},
	{"E11", func(s Scale) (*Table, bool) { return TokenCirculation(s), true }},
	{"E12", RefinementAblation},
	{"E13", Level1Ablation},
	{"E14", func(s Scale) (*Table, bool) { return UnifiedFaults(s), true }},
	{"E15", func(s Scale) (*Table, bool) { return LiveCluster(s), true }},
	{"E16", func(s Scale) (*Table, bool) { return WorkloadMatrix(s), true }},
	{"E17", ShardScale},
	{"E18", ParityGate},
}
