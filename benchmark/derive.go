package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"github.com/graybox-stabilization/graybox/internal/harness"
)

// Metric is one reported value. N is how many samples a timing rests on
// (0 for counts and ratios); it is printed but not part of the contract
// line, whose metric objects carry only value and unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// Result is one workload's outcome in one mode (untraced or traced).
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Failures says why Failed is not 0 or Correct is false.
	Failures []string `json:"failures,omitempty"`
	// Notes are caveats that fail nothing, such as a tail percentile
	// reported on fewer samples than it needs.
	Notes []string `json:"notes,omitempty"`
}

// set records a metric under the unit its specification gives it, so the
// code cannot emit a name or a unit the tables in spec.go do not list.
func (r *Result) set(name string, v float64, n int) {
	unit, ok := unitOf[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in spec.go")
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit, N: n}
}

func (r *Result) fail(ops int, format string, args ...any) {
	r.Failed += ops
	r.Correct = false
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// median of vs; 0 for none. The input is not modified.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile reads the q-th quantile of vs by linear interpolation between
// the two nearest ranks; 0 for none. The input is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// topPercentile is the highest of 50, 90, 95 and 99 that still has at
// least ten samples beyond it: the tail a sample of n supports. The
// end-to-end tail is p95 because the live segments hold 600 to 1800
// entries each; p99 is reported per layer and does not repeat.
func topPercentile(n int) int {
	for _, p := range []int{99, 95, 90} {
		if float64(n)*float64(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// liveOutcome folds the segments of a live workload into its end-to-end
// metrics and its verdict.
func liveOutcome(r *Result, name string, setup []float64, segs []liveSegment) {
	var thr, p50, p95 []float64
	var entries, msgs, mallocs float64
	for i, s := range segs {
		res := s.res
		thr = append(thr, res.ThroughputPerSec)
		p50 = append(p50, float64(res.LatP50US))
		p95 = append(p95, float64(res.LatP95US))
		entries += float64(res.Entries)
		msgs += float64(res.Snapshot.Counter("runtime_msgs_sent_total"))
		mallocs += float64(s.cost.mallocs)
		liveVerdict(r, name, i, res)
		if top := topPercentile(res.Entries); top < 95 {
			r.Notes = append(r.Notes, fmt.Sprintf(
				"segment %d: %d entries support p%d at most, entry_p95_us is reported regardless", i, res.Entries, top))
		}
	}
	r.set("setup_s", median(setup), len(setup))
	r.set("entries_per_s", median(thr), len(thr))
	r.set("entry_p50_us", median(p50), int(entries))
	r.set("entry_p95_us", median(p95), int(entries))
	r.set("msgs_per_entry", ratio(msgs, entries), 0)
	r.set("allocs_per_entry", ratio(mallocs, entries), 0)
}

// liveVerdict counts one live segment's operations. Attempted is requests
// issued. A request fails when it was neither served nor still in flight
// at the stop (each process can have one outstanding). Every sampled ME1
// violation fails a fault-free workload; on the fault workload only
// violations after convergence do, and not converging fails the run.
func liveVerdict(r *Result, name string, seg int, res harness.LiveResult) {
	r.Attempted += res.Requests
	if lost := res.Requests - res.Entries - res.N; lost > 0 {
		r.fail(lost, "segment %d: %d requests neither served nor in flight at stop", seg, lost)
	}
	if name == LivePartitionHeal {
		if v := res.SafetyViolationsAfterConvergence; v > 0 {
			r.fail(v, "segment %d: %d ME1 violations after convergence", seg, v)
		}
		if !res.Converged {
			r.fail(res.Requests, "segment %d: did not converge after the last heal", seg)
		}
	} else if v := res.SafetyViolations; v > 0 {
		r.fail(v, "segment %d: %d ME1 violations on a fault-free workload", seg, v)
	}
	if res.Entries == 0 {
		r.fail(1, "segment %d: no entries", seg)
	}
}

// simCounts is what one fixed-work repetition reports in exact counts:
// virtual time and event counts, which the same seed must reproduce to the
// last digit whatever the wall clock does.
type simCounts struct {
	Runs, Converged      int
	Clients, ClientsDone int
	Entries              int64
	ProgramMsgs          int64
	WrapperMsgs          int64
	Events               int64
	Violations           int64
	ConvTicks            int64
	// LatP50 and LatP95 add up the request-to-entry percentiles,
	// in ticks, of LatRuns latency summaries: one per run of sim-stabilize;
	// on sim-sharded the one of shard 0, the Zipf-hot shard that serves
	// two entries in five. (Cold shards' medians are the bare round trip
	// and their tails are fault-burst artefacts; the coordinator's median
	// over all of them sits on the knee between the two and moved by a
	// third from seed to seed.)
	LatP50, LatP95, LatRuns         int64
	Faults, Level1Repairs           int64
	HMEAcquisitions                 int64
	HMEOrder, HMEAudit, HMEInFlight int64
}

func (c *simCounts) addRun(n int, r harness.RunResult) {
	c.Runs++
	if r.Converged {
		c.Converged++
	}
	c.Clients += n
	c.ClientsDone += n - len(r.Starved)
	c.Entries += int64(r.Entries)
	c.ProgramMsgs += int64(r.ProgramMsgs)
	c.WrapperMsgs += int64(r.WrapperMsgs)
	c.Events += r.Obs.Counter("sim_events_total")
	c.Violations += int64(r.Violations)
	c.ConvTicks += r.ConvergenceTime
	c.LatP50 += r.Obs.Gauge("fair_latency_p50", 0)
	c.LatP95 += r.Obs.Gauge("fair_latency_p95", 0)
	c.LatRuns++
	c.Faults += r.Obs.Counter("fault_injected_total")
	c.Level1Repairs += r.Obs.Counter("sim_level1_repairs_total")
}

func (c *simCounts) addSharded(cfg harness.ShardedRunConfig, r harness.ShardedRunResult) {
	c.Runs += cfg.Shards
	c.Converged += r.ShardsConverged
	c.Clients += cfg.Clients
	c.ClientsDone += r.ClientsDone
	c.Entries += int64(r.Entries)
	c.Events += r.Events
	hot := r.ShardObs[0]
	c.LatP50 += hot.Gauge("fair_latency_p50", 0)
	c.LatP95 += hot.Gauge("fair_latency_p95", 0)
	c.LatRuns++
	for _, s := range r.ShardObs {
		c.ProgramMsgs += s.Counter("sim_msgs_program_total")
		c.WrapperMsgs += s.Counter("sim_msgs_wrapper_total")
		c.Level1Repairs += s.Counter("sim_level1_repairs_total")
	}
	c.Faults += int64(r.FaultsApplied)
	c.HMEAcquisitions += r.CrossAcquisitions
	c.HMEOrder += r.OrderViolations
	c.HMEAudit += r.AuditViolations
	c.HMEInFlight += int64(r.InFlight)
}

// tickUS is one simulator tick read in microseconds. The repository reads
// a workload tick as one virtual tick on the simulator and as
// harness.LiveTick, one millisecond, on the live cluster, so a simulated
// latency of t ticks stands for t ms.
const tickUS = 1000

// repCosts is what the repetitions of fixed work cost: the fastest
// repetition's wall and CPU time, and the median allocation count. On a
// shared machine interference only ever adds time, and it comes in spells
// longer than a repetition: the same work measured here took from 2.1 to
// 3.4 s within one process, so the median of a run moves with the spell it
// ran in and the minimum does not.
func repCosts(reps []simRep) (wall, cpu time.Duration, mallocs float64) {
	var ms []float64
	wall, cpu = reps[0].cost.wall, reps[0].cost.cpu
	for _, rep := range reps {
		wall, cpu = min(wall, rep.cost.wall), min(cpu, rep.cost.cpu)
		ms = append(ms, float64(rep.cost.mallocs))
	}
	return wall, cpu, median(ms)
}

// simOutcome folds the repetitions of a sim workload into its end-to-end
// metrics and its verdict. The counts are exact and come from the first
// repetition, which every other repetition must equal.
func simOutcome(r *Result, setup []float64, reps []simRep) {
	wall, _, mallocs := repCosts(reps)
	c := reps[0].counts
	entries := float64(c.Entries)
	// The fastest set-up, by the rule and for the reason repCosts gives: the
	// median of a run's set-ups moved from 0.105 to 0.138 s between sets of
	// ten runs of identical work.
	r.set("setup_s", slices.Min(setup), len(setup))
	r.set("entries_per_s", ratio(entries, wall.Seconds()), len(reps))
	r.set("entry_p50_us", ratio(float64(c.LatP50), float64(c.LatRuns))*tickUS, int(c.Entries))
	r.set("entry_p95_us", ratio(float64(c.LatP95), float64(c.LatRuns))*tickUS, int(c.Entries))
	r.set("msgs_per_entry", ratio(float64(c.ProgramMsgs+c.WrapperMsgs), entries), 0)
	r.set("allocs_per_entry", ratio(mallocs, entries), 0)
	simVerdict(r, reps)
}

// simVerdict counts a sim workload's operations: attempted is runs (or
// shards) plus client loops; a run that did not converge, a client that
// did not finish and every hme order or audit violation fails. Exact
// counts that differ between two repetitions fail the workload: the
// simulator is a pure function of its inputs.
func simVerdict(r *Result, reps []simRep) {
	c := reps[0].counts
	r.Attempted += c.Runs + c.Clients
	if n := c.Runs - c.Converged; n > 0 {
		r.fail(n, "%d of %d runs or shards did not converge", n, c.Runs)
	}
	if n := c.Clients - c.ClientsDone; n > 0 {
		r.fail(n, "%d of %d clients did not finish", n, c.Clients)
	}
	if n := c.HMEOrder + c.HMEAudit + c.HMEInFlight; n > 0 {
		r.fail(int(n), "hme: %d order, %d audit violations, %d lock sets in flight", c.HMEOrder, c.HMEAudit, c.HMEInFlight)
	}
	if c.Entries == 0 {
		r.fail(1, "no entries")
	}
	for i, rep := range reps[1:] {
		if rep.counts != c {
			r.fail(1, "repetition %d differs from repetition 0 in an exact count: %+v against %+v", i+1, rep.counts, c)
		}
	}
}
