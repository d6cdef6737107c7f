package harness

import (
	"fmt"
	"math"

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
// model checker. Rows are the four formal queries with their outcomes. ok
// is the figure's claim: C implements A from its initial states and A is
// self-stabilizing, yet C is not stabilizing to A and does not implement A
// everywhere.
func Fig1() (*Table, bool) {
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
	ok := r.Holds && okA && !okC && !re.Holds
	t.Notes = append(t.Notes,
		"expected: true, true, false, false — exactly the paper's Figure 1",
		fmt.Sprintf("verdict: ok=%v (the four queries decide true, true, false, false)", ok))
	return t, ok
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
		var eager recovery
		for _, delta := range []int64{NoWrapper, 0, 10} {
			r := deadlockRecovery(algo, delta, false, false, seeds)
			wname := fmt.Sprintf("W'(δ=%d)", delta)
			if delta == NoWrapper {
				wname = "none"
			}
			t.AddRow(algo.String(), wname,
				fmt.Sprintf("%d/%d", r.recovered, seeds), r.meanLat(), fmt.Sprint(r.maxLat))
			switch delta {
			case NoWrapper:
				ok = ok && r.recovered == 0
			case 0:
				ok = ok && r.recovered == seeds
				eager = r
			default:
				ok = ok && r.recovered == seeds && eager.sumLat < r.sumLat
			}
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: 0 recoveries without the wrapper (deadlock is permanent);",
		"all runs recover with W', with latency growing in δ",
		fmt.Sprintf("verdict: ok=%v (per protocol: none recovers 0 runs, W'(δ=0) and W'(δ=10) recover all, mean latency δ=0 < δ=10)", ok))
	return t, ok
}

// recovery is the §4 deadlock-recovery measurement summed over seeds (E4,
// E5, E12): per seed, one n=4 run whose in-flight messages are all dropped
// while requests are outstanding and, when asked for, its fault-free twin,
// which measures the wrapper's steady-state cost.
type recovery struct {
	// recovered counts the deadlock runs with an entry after the fault;
	// sumLat and maxLat are over their latencies to that first entry.
	recovered      int
	sumLat, maxLat int64
	// wrapMsgs sums the deadlock runs' wrapper messages; cleanWrapMsgs
	// and cleanEntries sum the fault-free twins' (0 without twins).
	wrapMsgs, cleanWrapMsgs, cleanEntries int
}

// deadlockRecovery runs the §4 measurement of algo under W'(δ=delta) (the
// refined W unless unrefined) over seeds 0..seeds-1, with the fault-free
// twin of each run when twin is set.
func deadlockRecovery(algo Algo, delta int64, unrefined, twin bool, seeds int) recovery {
	var rec recovery
	for seed := 0; seed < seeds; seed++ {
		r := Run(RunConfig{
			Algo: algo, N: 4, Seed: int64(seed),
			Delta: delta, Unrefined: unrefined,
			DeadlockFault: true, Horizon: 30000,
		})
		if r.EntriesAfterFault > 0 {
			rec.recovered++
			lat := r.FirstEntryAfterFault - r.LastFault
			rec.sumLat += lat
			rec.maxLat = max(rec.maxLat, lat)
		}
		rec.wrapMsgs += r.WrapperMsgs
		if twin {
			c := Run(RunConfig{
				Algo: algo, N: 4, Seed: int64(seed),
				Delta: delta, Unrefined: unrefined,
			})
			rec.cleanWrapMsgs += c.WrapperMsgs
			rec.cleanEntries += c.Entries
		}
	}
	return rec
}

// meanLat renders the mean recovery latency of the recovered runs ("-"
// when none recovered).
func (r recovery) meanLat() string {
	if r.recovered == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(r.sumLat)/float64(r.recovered))
}

// TimeoutSweep runs E5: δ trades recovery latency against steady-state
// wrapper message overhead; δ=0 is the eager W. ok is the tuning claim:
// every deadlock run recovers at every δ; the mean recovery latency is
// non-decreasing in δ and at least δ (W' first fires δ after the requests,
// which come one tick before the fault, and a round trip must follow); and
// the wrapper messages of the deadlock runs and of their fault-free twins
// are non-increasing in δ.
func TimeoutSweep(algo Algo, scale Scale) (*Table, bool) {
	t := &Table{
		Title: fmt.Sprintf("E5 (W' tuning): timeout δ sweep on %v", algo),
		Header: []string{"δ", "mean recovery latency", "wrapper msgs (faulty)",
			"wrapper msgs (fault-free)", "wrapper msgs/entry (fault-free)"},
	}
	seeds := scale.seeds()
	ok := true
	var prev recovery
	for i, delta := range scale.deltas() {
		r := deadlockRecovery(algo, delta, false, true, seeds)
		perEntry := "-"
		if r.cleanEntries > 0 {
			perEntry = fmt.Sprintf("%.2f", float64(r.cleanWrapMsgs)/float64(r.cleanEntries))
		}
		t.AddRow(fmt.Sprint(delta), r.meanLat(),
			fmt.Sprint(r.wrapMsgs/seeds), fmt.Sprint(r.cleanWrapMsgs/seeds), perEntry)
		// Every row recovers all seeds, so latency sums compare as means.
		ok = ok && r.recovered == seeds && r.sumLat >= delta*int64(seeds)
		if i > 0 {
			ok = ok && prev.sumLat <= r.sumLat &&
				prev.wrapMsgs >= r.wrapMsgs && prev.cleanWrapMsgs >= r.cleanWrapMsgs
		}
		prev = r
	}
	t.Notes = append(t.Notes,
		"expected shape: recovery latency grows roughly linearly in δ;",
		"steady-state wrapper messages fall sharply as δ grows (the paper's tuning claim);",
		"δ=0 reproduces the eager W exactly",
		fmt.Sprintf("verdict: ok=%v (every deadlock run recovers at every δ; mean recovery latency at least δ and non-decreasing in δ; faulty and fault-free wrapper messages non-increasing in δ)", ok))
	return t, ok
}

// Interference runs E6 (Lemma 6): in fault-free runs the wrapper changes no
// observable behaviour — identical entries, zero violations — only extra
// messages. ok is that claim, per protocol: no wrapper, W'(δ=0) and
// W'(δ=10) give equal entries with 0 violations and 0 starved, and the
// unwrapped rows send no wrapper message.
func Interference(scale Scale) (*Table, bool) {
	t := &Table{
		Title: "E6 (Lemma 6): interference freedom in fault-free runs",
		Header: []string{"algo", "wrapper", "entries", "violations",
			"starved", "program msgs", "wrapper msgs"},
	}
	ok := true
	for _, algo := range []Algo{RA, Lamport} {
		bare := -1 // the unwrapped row's entries
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
				bare = entries
				ok = ok && wmsgs == 0
			}
			ok = ok && entries == bare && violations == 0 && starved == 0
			t.AddRow(algo.String(), wname, fmt.Sprint(entries),
				fmt.Sprint(violations), fmt.Sprint(starved),
				fmt.Sprint(pmsgs), fmt.Sprint(wmsgs))
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: identical entry counts and zero violations across wrapper settings;",
		"the wrapper's only observable effect in legitimate runs is its own request traffic",
		fmt.Sprintf("verdict: ok=%v (per protocol: none, W'(δ=0) and W'(δ=10) give equal entries, 0 violations and 0 starved; none sends 0 wrapper messages)", ok))
	return t, ok
}

// LspecImpliesTME runs E7 (Thm 5): fault-free monitored runs of both
// programs satisfy every Lspec component and, with it, ME1/ME2/ME3. ok is
// that every row reads 0 violations and 0 open obligations.
func LspecImpliesTME(scale Scale) (*Table, bool) {
	t := &Table{
		Title:  "E7 (Thm 5): Lspec ⇒ TME_Spec on monitored runs",
		Header: []string{"algo", "runs", "Lspec violations", "ME violations", "open obligations"},
	}
	ok := true
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
			lv += r.Violations - r.TMEViolations
			mv += r.TMEViolations
			open += len(r.Starved)
		}
		ok = ok && lv == 0 && mv == 0 && open == 0
		t.AddRow(algo.String(), fmt.Sprint(runs), fmt.Sprint(lv), fmt.Sprint(mv), fmt.Sprint(open))
	}
	t.Notes = append(t.Notes,
		"expected: all-zero rows — programs satisfying Lspec satisfy TME_Spec (Theorem 5)",
		fmt.Sprintf("verdict: ok=%v (every row reads 0 / 0 / 0)", ok))
	return t, ok
}

// Scalability runs E8: wrapper overhead as a function of system size and of
// the implementation behind the same SpecView (the graybox scalability and
// reusability argument of §1). ok is that claim: every run converges, and
// at each n the Lamport-to-RA ratio of wrapper messages per entry is closer
// to 1 than the ratio of program messages per entry — the wrapper's cost
// belongs to the spec, not to the implementation.
func Scalability(scale Scale) (*Table, bool) {
	t := &Table{
		Title: "E8 (§1): wrapper cost scales with the spec, not the implementation",
		Header: []string{"n", "algo", "wrapper msgs/entry", "program msgs/entry",
			"converged"},
	}
	ok := true
	seeds := scale.seeds()
	for _, n := range scale.ns() {
		var wPer, pPer [2]float64 // per entry, RA then Lamport
		for k, algo := range []Algo{RA, Lamport} {
			var wm, pm, entries, converged int
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
			wCell, pCell := "-", "-"
			if entries > 0 {
				wPer[k] = float64(wm) / float64(entries)
				pPer[k] = float64(pm) / float64(entries)
				wCell = fmt.Sprintf("%.2f", wPer[k])
				pCell = fmt.Sprintf("%.2f", pPer[k])
			}
			ok = ok && entries > 0 && converged == seeds
			t.AddRow(fmt.Sprint(n), algo.String(), wCell, pCell,
				fmt.Sprintf("%d/%d", converged, seeds))
		}
		// A row with no entries or no RA wrapper traffic makes a ratio
		// NaN or infinite, and the comparison false.
		ok = ok && math.Abs(wPer[1]/wPer[0]-1) < math.Abs(pPer[1]/pPer[0]-1)
	}
	t.Notes = append(t.Notes,
		"expected shape: per-entry wrapper cost is nearly identical for both implementations at",
		"each n (the wrapper sees only the spec); it grows ~O(n²) — a hungry period lasts Θ(n)",
		"service rounds and each W' firing pings up to n−1 peers — while the programs' own",
		"per-entry cost grows ~O(n)",
		fmt.Sprintf("verdict: ok=%v (every run converged; at each n the Lamport-to-RA ratio of wrapper msgs/entry is closer to 1 than that of program msgs/entry)", ok))
	return t, ok
}

// Synthesis runs E9 (§6 future work): synthesized recovery strategies match
// the hand-designed wrapper's guarantees on random finite specifications.
// ok is that at every size synthesis succeeds on every spec, and every
// wrapped spec and every wrapped implementation is stabilizing.
func Synthesis(scale Scale) (*Table, bool) {
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
	verdict := true
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
		verdict = verdict && ok == specs && stab == ok && reuse == ok
		t.AddRow(fmt.Sprint(n), fmt.Sprint(specs), fmt.Sprint(ok),
			fmt.Sprintf("%d/%d", stab, ok), fmt.Sprintf("%d/%d", reuse, ok), mean)
	}
	t.Notes = append(t.Notes,
		"expected: synthesis succeeds on every spec (unconstrained candidates),",
		"every wrapped spec and wrapped implementation is stabilizing, recovery ≤ diameter",
		fmt.Sprintf("verdict: ok=%v (at every size: synth ok = specs, wrapped stabilizing = reusable on impls = synth ok)", verdict))
	return t, verdict
}

// WhiteboxBaseline runs E10: Dijkstra's K-state token ring — the canonical
// whitebox stabilization design — against the graybox-wrapped RA system
// under comparable transient state corruption. Both stabilize; the contrast
// the paper draws is in the design input (implementation vs specification)
// and hence reusability, not in whether convergence happens. ok is that
// both converge on every seed at every n; the ring's convergence counts
// only if its privilege then circulates (tokenring.Sim.Circulates).
func WhiteboxBaseline(scale Scale) (*Table, bool) {
	t := &Table{
		Title: "E10 (baseline, §1/§6): whitebox token ring vs graybox-wrapped RA",
		Header: []string{"n", "whitebox conv (moves, mean/max)",
			"graybox conv (ticks, mean/max)", "whitebox converged", "graybox converged"},
	}
	seeds := scale.seeds()
	verdict := true
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
			if ok && ts.Circulates() {
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
		verdict = verdict && wbOK == seeds && gbOK == seeds
		t.AddRow(fmt.Sprint(n), wbMean, gbMean,
			fmt.Sprintf("%d/%d", wbOK, seeds), fmt.Sprintf("%d/%d", gbOK, seeds))
	}
	t.Notes = append(t.Notes,
		"both designs converge on every seed; units differ (daemon moves vs virtual ticks) — the",
		"comparison is qualitative: the ring's stabilization is welded to one implementation,",
		"the wrapper's applies to every everywhere-implementation of Lspec",
		fmt.Sprintf("verdict: ok=%v (whitebox and graybox both converge on every seed at every n)", verdict))
	return t, verdict
}

// TokenCirculation runs E11: the graybox method re-applied to a second
// problem (internal/ring) — token circulation with a regeneration wrapper.
// One wrapper, two structurally different implementations (eager and lazy),
// identical fault schedule: token loss at t=50. ok is that for both
// implementations no unwrapped run recovers and the regenerator recovers
// every run.
func TokenCirculation(scale Scale) (*Table, bool) {
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
	ok := true
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
				if lat := ringRecovery(s); lat >= 0 {
					recovered++
					latSum += lat
				}
				regens += s.Metrics().Regenerations
				discards += s.Metrics().Discards
			}
			wname := fmt.Sprintf("regen(δ=%d)", delta)
			if delta == 0 {
				wname = "none"
				ok = ok && recovered == 0
			} else {
				ok = ok && recovered == seeds
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
		"the §2.2 method carries to a new problem without touching implementation internals",
		fmt.Sprintf("verdict: ok=%v (both implementations: none recovers 0 runs, the regenerator recovers every run)", ok))
	return t, ok
}

// ringRecovery ticks s from a fault until token circulation resumes (the
// summed accepts grow) and returns the ticks that took, or -1 if it did
// not resume within 3000 ticks.
func ringRecovery(s *ring.Sim) int64 {
	accepts := func() int {
		total := 0
		for _, a := range s.Metrics().Accepts {
			total += a
		}
		return total
	}
	faultAt, before := s.Now(), accepts()
	for s.Now() < faultAt+3000 {
		s.Tick()
		if accepts() > before {
			return s.Now() - faultAt
		}
	}
	return -1
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
	var v [2]recovery // refined, unrefined
	for k, unrefined := range []bool{false, true} {
		v[k] = deadlockRecovery(RA, 5, unrefined, true, seeds)
		name := "refined W"
		if unrefined {
			name = "unrefined W"
		}
		t.AddRow(name, fmt.Sprintf("%d/%d", v[k].recovered, seeds), v[k].meanLat(),
			fmt.Sprint(v[k].wrapMsgs/seeds), fmt.Sprint(v[k].cleanWrapMsgs/seeds))
	}
	// Both variants recover every seed, so equal latency sums are equal means.
	ok := v[0].recovered == seeds && v[1].recovered == seeds && v[0].sumLat == v[1].sumLat &&
		v[0].wrapMsgs < v[1].wrapMsgs && v[0].cleanWrapMsgs < v[1].cleanWrapMsgs
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
// state perturbation lands there) and every substrate recovers. ok is that
// claim: every run recovers on all three substrates (the daemon's ring
// recovers when it is legitimate again and its privilege circulates).
func UnifiedFaults(scale Scale) (*Table, bool) {
	t := &Table{
		Title: "E14 (unified fault surface): one Mix drives all three substrates",
		Header: []string{"substrate", "faults injected", "recovered runs",
			"mean recovery"},
	}
	mix := fault.Mix{Loss: 2, Dup: 1, Corrupt: 1, State: 2, Flush: 1}
	seeds := scale.seeds()
	ok := true

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
		ok = ok && recovered == seeds
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
			if lat := ringRecovery(s); lat >= 0 {
				recovered++
				latSum += lat
			}
			faults += in.Count()
		}
		mean := "-"
		if recovered > 0 {
			mean = fmt.Sprintf("%.1f ticks", float64(latSum)/float64(recovered))
		}
		ok = ok && recovered == seeds
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
			if moves, conv := s.Converge(start + 100*n*n*(n+1)); conv && s.Circulates() {
				recovered++
				moveSum += moves - start
			}
			faults += in.Count()
		}
		mean := "-"
		if recovered > 0 {
			mean = fmt.Sprintf("%.1f moves", float64(moveSum)/float64(recovered))
		}
		ok = ok && recovered == seeds
		t.AddRow("tokenring (daemon)", fmt.Sprint(faults),
			fmt.Sprintf("%d/%d", recovered, seeds), mean)
	}

	t.Notes = append(t.Notes,
		"one injector type, one Mix, three substrates behind engine.Surface;",
		"each substrate applies the fault classes its structure supports and",
		"recovers — the fault model is now a property of the engine, not of any",
		"single protocol simulator",
		fmt.Sprintf("verdict: ok=%v (all three substrates recover every run)", ok))
	return t, ok
}

// Experiment is one table of EXPERIMENTS.md.
type Experiment struct {
	// ID is the experiment's index, "E1" to "E18".
	ID string
	// Run builds the table at the given scale. Every experiment but E15
	// and E16 judges its own claim: ok is false when it finds the claim
	// broken, and its verdict is the table's last note. E15 and E16 run
	// their rows on the wall clock, so their outcome depends on the box as
	// much as on the code; they stay unjudged (ok is always true).
	Run func(Scale) (t *Table, ok bool)
}

// Experiments lists every experiment, in index order.
var Experiments = []Experiment{
	{"E1", func(Scale) (*Table, bool) { return Fig1() }},
	{"E2", func(s Scale) (*Table, bool) { return Stabilization(RA, s) }},
	{"E3", func(s Scale) (*Table, bool) { return Stabilization(Lamport, s) }},
	{"E4", Deadlock},
	{"E5", func(s Scale) (*Table, bool) { return TimeoutSweep(RA, s) }},
	{"E6", Interference},
	{"E7", LspecImpliesTME},
	{"E8", Scalability},
	{"E9", Synthesis},
	{"E10", WhiteboxBaseline},
	{"E11", TokenCirculation},
	{"E12", RefinementAblation},
	{"E13", Level1Ablation},
	{"E14", UnifiedFaults},
	{"E15", func(s Scale) (*Table, bool) { return LiveCluster(s), true }},
	{"E16", func(s Scale) (*Table, bool) { return WorkloadMatrix(s), true }},
	{"E17", ShardScale},
	{"E18", ParityGate},
}
