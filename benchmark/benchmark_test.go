package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/graybox-stabilization/graybox/internal/harness"
	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func newResult(workload string) *Result {
	return &Result{Workload: workload, Correct: true, Metrics: map[string]Metric{}}
}

// cannedSegment is a live segment with round numbers.
func cannedSegment(entries, requests, msgs int, p50, p95 int64, thr float64) liveSegment {
	snap := obs.NewSnapshot()
	snap.Counters["runtime_msgs_sent_total"] = int64(msgs)
	return liveSegment{
		res: harness.LiveResult{
			N: 5, Entries: entries, Requests: requests, ThroughputPerSec: thr,
			LatP50US: p50, LatP95US: p95, Converged: true, Snapshot: snap,
		},
		cost: cost{mallocs: uint64(entries * 30)},
	}
}

func TestLiveOutcomeDerivesFromCannedSegments(t *testing.T) {
	r := newResult(LiveUncontended)
	segs := []liveSegment{
		cannedSegment(1000, 1003, 8000, 190, 2600, 250),
		cannedSegment(1000, 1002, 8400, 180, 2500, 240),
		cannedSegment(2000, 2004, 16400, 200, 2700, 260),
	}
	liveOutcome(r, LiveUncontended, []float64{0.3, 0.1, 0.2}, segs)
	want := map[string]float64{
		"setup_s":          0.2,
		"entries_per_s":    250,
		"entry_p50_us":     190,
		"entry_p95_us":     2600,
		"msgs_per_entry":   8.2,
		"allocs_per_entry": 30,
	}
	for name, v := range want {
		if got := r.Metrics[name].Value; !near(got, v) {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if len(r.Metrics) != len(EndToEnd) {
		t.Errorf("live outcome set %d metrics, the end-to-end table has %d", len(r.Metrics), len(EndToEnd))
	}
	if !r.Correct || r.Failed != 0 || r.Attempted != 4009 {
		t.Errorf("verdict correct=%v failed=%d attempted=%d, want true 0 4009", r.Correct, r.Failed, r.Attempted)
	}
	if n := r.Metrics["entry_p50_us"].N; n != 4000 {
		t.Errorf("entry_p50_us sample count %d, want 4000", n)
	}
}

func TestLiveVerdictCountsFailures(t *testing.T) {
	for _, tc := range []struct {
		name     string
		workload string
		change   func(*harness.LiveResult)
		failed   int
	}{
		{"clean", LiveSaturated, func(*harness.LiveResult) {}, 0},
		{"lost requests beyond one in flight per process", LiveSaturated,
			func(r *harness.LiveResult) { r.Requests = r.Entries + 5 + 3 }, 3},
		{"ME1 violation on a fault-free workload", LiveUncontended,
			func(r *harness.LiveResult) { r.SafetyViolations = 2 }, 2},
		{"violations before convergence are the fault's", LivePartitionHeal,
			func(r *harness.LiveResult) { r.SafetyViolations = 2 }, 0},
		{"violation after convergence", LivePartitionHeal,
			func(r *harness.LiveResult) { r.SafetyViolationsAfterConvergence = 1 }, 1},
		{"not converged fails every request", LivePartitionHeal,
			func(r *harness.LiveResult) { r.Converged = false }, 100},
		{"no entries", LiveSaturated,
			func(r *harness.LiveResult) { r.Entries, r.Requests = 0, 0 }, 1},
	} {
		res := harness.LiveResult{N: 5, Entries: 98, Requests: 100, Converged: true}
		tc.change(&res)
		r := newResult(tc.workload)
		liveVerdict(r, tc.workload, 0, res)
		if r.Failed != tc.failed || r.Correct != (tc.failed == 0) {
			t.Errorf("%s: failed=%d correct=%v, want failed=%d", tc.name, r.Failed, r.Correct, tc.failed)
		}
	}
}

func TestSimOutcomeUsesFastestRepAndExactCounts(t *testing.T) {
	counts := simCounts{
		Runs: 100, Converged: 100, Clients: 500, ClientsDone: 500,
		Entries: 15000, ProgramMsgs: 390000, WrapperMsgs: 15000,
		LatP50: 1850, LatP95: 2600, LatRuns: 100,
	}
	rep := func(wall time.Duration, mallocs uint64) simRep {
		return simRep{cost: cost{wall: wall, cpu: wall, mallocs: mallocs}, counts: counts}
	}
	reps := []simRep{rep(1500*time.Millisecond, 300100), rep(time.Second, 300000), rep(2*time.Second, 300300)}
	r := newResult(SimStabilize)
	simOutcome(r, []float64{0.5, 0.1, 0.3}, reps)
	want := map[string]float64{
		"setup_s":          0.1,   // the fastest set-up
		"entries_per_s":    15000, // the 1 s repetition
		"entry_p50_us":     18500, // 18.5 ticks read as ms
		"entry_p95_us":     26000,
		"msgs_per_entry":   27,
		"allocs_per_entry": 300100.0 / 15000,
	}
	for name, v := range want {
		if got := r.Metrics[name].Value; !near(got, v) {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if !r.Correct || r.Attempted != 600 {
		t.Errorf("verdict correct=%v attempted=%d, want true 600", r.Correct, r.Attempted)
	}

	// One repetition that disagrees in an exact count fails the workload.
	reps[2].counts.Events++
	r = newResult(SimStabilize)
	simOutcome(r, []float64{0.1}, reps)
	if r.Correct || r.Failed != 1 {
		t.Errorf("differing repetition: correct=%v failed=%d, want false 1", r.Correct, r.Failed)
	}
}

func TestSimVerdictCountsFailures(t *testing.T) {
	good := simCounts{Runs: 8, Converged: 8, Clients: 640, ClientsDone: 640, Entries: 10}
	for _, tc := range []struct {
		name   string
		change func(*simCounts)
		failed int
	}{
		{"clean", func(*simCounts) {}, 0},
		{"shard not converged", func(c *simCounts) { c.Converged = 7 }, 1},
		{"unfinished clients", func(c *simCounts) { c.ClientsDone = 630 }, 10},
		{"hme violations", func(c *simCounts) { c.HMEOrder, c.HMEAudit, c.HMEInFlight = 1, 2, 3 }, 6},
	} {
		c := good
		tc.change(&c)
		r := newResult(SimSharded)
		simVerdict(r, []simRep{{counts: c}})
		if r.Failed != tc.failed || r.Correct != (tc.failed == 0) {
			t.Errorf("%s: failed=%d correct=%v, want failed=%d", tc.name, r.Failed, r.Correct, tc.failed)
		}
	}
}

func TestQuantileAndSampleCountRule(t *testing.T) {
	vs := []float64{50, 10, 40, 20, 30}
	for q, want := range map[float64]float64{0: 10, 0.5: 30, 0.9: 46, 1: 50} {
		if got := quantile(vs, q); !near(got, want) {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 || median([]float64{7}) != 7 {
		t.Error("quantile of nothing must be 0 and of one value that value")
	}
	// A percentile needs ten samples beyond it.
	for n, want := range map[int]int{50: 50, 99: 50, 100: 90, 199: 90, 200: 95, 999: 95, 1000: 99} {
		if got := topPercentile(n); got != want {
			t.Errorf("topPercentile(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if !near(q1, 0.75) || !near(q2, 1.5) || !near(q3, 2.25) {
		t.Errorf("quartiles of 1, 2 = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	if spread([]float64{5}) != 0 {
		t.Error("one value has no spread")
	}
}

func TestJudge(t *testing.T) {
	lower := MetricSpec{Name: "entry_p50_us", Better: "lower", Bound: 0.10}
	higher := MetricSpec{Name: "entries_per_s", Better: "higher", Bound: 0.10}
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c, c * 1.01} }
	for _, tc := range []struct {
		name string
		m    MetricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady(100), steady(100), verdictOK},
		{"lower is better and it fell", lower, steady(100), steady(50), verdictOK},
		{"lower is better and it rose past the bound", lower, steady(100), steady(115), verdictRegressed},
		{"rose inside the bound", lower, steady(100), steady(108), verdictOK},
		{"higher is better and it fell past the bound", higher, steady(100), steady(85), verdictRegressed},
		{"higher is better and it rose", higher, steady(100), steady(130), verdictOK},
		{"spread wider than the bound", lower, []float64{80, 100, 120, 140}, steady(100), verdictUnresolved},
		{"single runs compare directly", lower, []float64{100}, []float64{120}, verdictRegressed},
	} {
		if _, got := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestAgreeFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 3; seed++ {
			r := newResult(LiveSaturated)
			r.Seed = seed
			r.set("entry_p50_us", p50+float64(seed), 10)
			if err := appendResult(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, worse := write("a.json", 8000), write("same.json", 8010), write("worse.json", 12000)
	var out bytes.Buffer
	if code, err := agreeFiles(&out, a, same); code != 0 || err != nil {
		t.Errorf("agreeing sets: code %d err %v\n%s", code, err, out.String())
	}
	out.Reset()
	if code, err := agreeFiles(&out, a, worse); code != 1 || err != nil || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("regressed set: code %d err %v\n%s", code, err, out.String())
	}
	if code, _ := agreeFiles(&out, a, filepath.Join(dir, "missing.json")); code == 0 {
		t.Error("a missing set must not agree")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range []string{LiveUncontended, LiveSaturated, LivePartitionHeal} {
		a, err := liveInputs(name, 7, 4*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := liveInputs(name, 7, 4*time.Second)
		c, _ := liveInputs(name, 8, 4*time.Second)
		if !bytes.Equal(a.WorkloadTrace.JSON(), b.WorkloadTrace.JSON()) {
			t.Errorf("%s: same seed, different workload trace", name)
		}
		if bytes.Equal(a.WorkloadTrace.JSON(), c.WorkloadTrace.JSON()) {
			t.Errorf("%s: different seeds, same workload trace", name)
		}
		if name != LivePartitionHeal {
			if a.Schedule != nil {
				t.Errorf("%s: a fault-free workload has a fault schedule", name)
			}
			continue
		}
		if !bytes.Equal(a.Schedule.JSON(), b.Schedule.JSON()) {
			t.Errorf("%s: same seed, different fault schedule", name)
		}
		if bytes.Equal(a.Schedule.JSON(), c.Schedule.JSON()) {
			t.Errorf("%s: different seeds, same fault schedule", name)
		}
	}
	if !reflect.DeepEqual(simStabilizeInputs(3, 100), simStabilizeInputs(3, 100)) ||
		!reflect.DeepEqual(simShardedInputs(3, 16), simShardedInputs(3, 16)) {
		t.Error("same seed, different simulator inputs")
	}
	if e17 := simShardedInputs(1, 16); e17.Seed != 17 || e17.FaultSeed != 23 {
		t.Errorf("seed 1 must be E17's own seed pair (17, 23), got (%d, %d)", e17.Seed, e17.FaultSeed)
	}
}

func TestPartitionScheduleShape(t *testing.T) {
	s := partitionSchedule(1, liveN, 18*time.Second)
	if got := len(s.Events); got != 2*58 {
		t.Fatalf("18 s hold %d events, want 58 partition/heal cycles", got)
	}
	for i := 0; i < len(s.Events); i += 2 {
		cut, heal := s.Events[i], s.Events[i+1]
		if cut.AtMS != int64(cutStartMS+i/2*(cutMS+healedMS)) || heal.AtMS != cut.AtMS+cutMS {
			t.Fatalf("cycle %d at %d/%d ms", i/2, cut.AtMS, heal.AtMS)
		}
		if len(cut.Group) != 2 || cut.Group[0] >= cut.Group[1] || cut.Group[1] >= liveN {
			t.Fatalf("cycle %d cuts %v, want two distinct sorted nodes", i/2, cut.Group)
		}
	}
	if last := s.Events[len(s.Events)-1].AtMS; last+healedMS > 18000 {
		t.Errorf("last heal at %d ms leaves less than %d ms to recover in", last, healedMS)
	}
}

func TestRecoveriesAndLateness(t *testing.T) {
	ms := int64(time.Millisecond)
	heals := []int64{100 * ms, 400 * ms, 900 * ms}
	entries := []int64{50 * ms, 113 * ms, 120 * ms, 400 * ms, 425 * ms}
	// The entry at the very instant of a heal is not after it; the last
	// heal has no entry after it and so no gap.
	if got := recoveries(heals, entries); !reflect.DeepEqual(got, []float64{13, 25}) {
		t.Errorf("recoveries %v, want [13 25]", got)
	}
	sched := partitionSchedule(1, liveN, 2*time.Second)
	fired := []int64{7 * ms, 107*ms + 250_000, 307*ms + 1_000_000}
	if got := scheduleLateness(sched, fired); !reflect.DeepEqual(got, []float64{0, 250, 1000}) {
		t.Errorf("lateness %v us, want [0 250 1000]", got)
	}
	if scheduleLateness(nil, fired) != nil || scheduleLateness(sched, nil) != nil {
		t.Error("no schedule or no events: no lateness")
	}
}

// A hand-built tree: a 100-long root whose children cover [10,30] and
// [20,50] (overlapping) and reach past its end.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: spanEntry, Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 140},
		{ID: 4, Parent: 2, Name: "d", Start: 25, End: 35},
		{ID: 5, Parent: 2, Name: "e", Start: 60, End: 70}, // caused by b, outside it
	}
	want := []int64{
		100 - (40 + 10), // [10,50] and [90,100]
		20,
		30 - 10,
		50,
		10,
		10,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestBuildSpansAndLedger(t *testing.T) {
	req := ltime.Timestamp{Clock: 9, PID: 0}
	msg := func(kind tme.Kind, from, to int, ts ltime.Timestamp) tme.Message {
		return tme.Message{Kind: kind, From: from, To: to, TS: ts}
	}
	// Node 0 of 3 requests at t=1000. Peer 1 answers fast, peer 2 slowly:
	// peer 2's chain is the blocking one.
	var msgs []msgEvent
	flight := func(m tme.Message, send, wire, deliver int64) {
		msgs = append(msgs,
			msgEvent{at: atSend, t: send, m: m},
			msgEvent{at: atWire, t: wire, m: m},
			msgEvent{at: atDeliver, t: deliver, m: m})
	}
	flight(msg(tme.Request, 0, 1, req), 1010, 1020, 1060)
	flight(msg(tme.Request, 0, 2, req), 1015, 1030, 1080)
	flight(msg(tme.Reply, 1, 0, ltime.Timestamp{Clock: 10, PID: 1}), 1070, 1080, 1120)
	flight(msg(tme.Reply, 2, 0, ltime.Timestamp{Clock: 10, PID: 2}), 1100, 1110, 1190)
	// A W' resend of the same request later on must not rematch.
	flight(msg(tme.Request, 0, 2, req), 1150, 1160, 1170)
	entries := []entryRecord{{node: 0, req: req, t0: 1000, t1: 1025, entered: 1200, r0: 2200, r1: 2204}}

	spans := buildSpans(3, msgs, entries)
	byName := map[string][]Span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	if n := len(byName[spanHop]); n != 4 {
		t.Fatalf("%d hop spans, want 4 (two requests, two replies)", n)
	}
	if got := byName[spanEntry][0]; got.dur() != 200 || got.Entry != "9.0" || got.Parent != -1 {
		t.Errorf("entry span %+v, want 200 long, entry 9.0, no parent", got)
	}
	if got := byName[spanToEntry]; len(got) != 1 || got[0].Start != 1190 || got[0].End != 1200 {
		t.Errorf("deliver_to_entry %+v, want one span [1190,1200] after the last reply", got)
	}
	var turn []int64
	for _, s := range byName[spanTurnaround] {
		turn = append(turn, s.dur())
	}
	if !reflect.DeepEqual(turn, []int64{10, 20}) {
		t.Errorf("reply turnarounds %v, want [10 20]", turn)
	}
	for _, s := range spans {
		if s.Entry != "9.0" {
			t.Errorf("span %s carries entry %q, want the request's 9.0", s.Name, s.Entry)
		}
	}
	// Blocking chain: request_call keeps [1000,1010] to itself, then peer 2:
	// proxy 15, hop 50, turnaround 20, proxy 10, hop 80, deliver_to_entry 10
	// = 195 of 200. The 5 missing are the gap between the first and the
	// blocking request hand-off.
	sum, n := ledger(spans)
	if n != 1 || !near(sum, 975) {
		t.Errorf("ledger %v over %d entries, want 975 over 1", sum, n)
	}
	if d := spanDurationsUS(spans, spanRelease); len(d) != 1 || !near(d[0], 0.004) {
		t.Errorf("release call durations %v us, want [0.004]", d)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json at the repository root and the tables in spec.go must say
// the same thing.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []MetricSpec `json:"end_to_end"`
		PerLayer   []MetricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.EndToEnd, EndToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", file.EndToEnd, EndToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, PerLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", file.PerLayer, PerLayer)
	}
	if len(file.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in json, %d in code", len(file.Workloads), len(Workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != Workloads[i] || w.Why != workloadWhy[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: json %q %q, code %q %q", i, w.Name, w.Why, Workloads[i], workloadWhy[Workloads[i]])
		}
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmark"}) || !reflect.DeepEqual(file.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("paths %v command %v", file.Paths, file.Command)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", file.RunSeconds)
	}

	seen := map[string]bool{}
	sawSetup := false
	for _, m := range append(append([]MetricSpec{}, EndToEnd...), PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q unit %q: bad or repeated name, or bad unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better %q", m.Name, m.Better)
		}
	}
	for _, m := range EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			sawSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	for _, m := range PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %q carries a bound", m.Name)
		}
	}
	if !sawSetup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, w := range Workloads {
		if !nameRE.MatchString(w) {
			t.Errorf("workload name %q", w)
		}
	}
}

// contract decodes the line a driver reads and checks its shape.
func contract(t *testing.T, out string, want []MetricSpec) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line of stdout is not JSON: %v\n%s", err, out)
	}
	if len(line) != 4 {
		t.Errorf("contract line has keys %v, want exactly correct, attempted, failed, metrics", line)
	}
	var correct bool
	var attempted, failed int
	var metrics map[string]map[string]json.RawMessage
	for key, dst := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
		if err := json.Unmarshal(line[key], dst); err != nil {
			t.Fatalf("contract key %q: %v", key, err)
		}
	}
	if !correct || attempted < 1 || failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", correct, attempted, failed)
	}
	if len(metrics) != len(want) {
		t.Errorf("%d metrics on the line, the table has %d", len(metrics), len(want))
	}
	for _, m := range want {
		got, ok := metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		var unit string
		var value float64
		if len(got) != 2 || json.Unmarshal(got["unit"], &unit) != nil || json.Unmarshal(got["value"], &value) != nil || unit != m.Unit {
			t.Errorf("metric %s = %v, want exactly a value and unit %q", m.Name, got, m.Unit)
		}
		if math.IsNaN(value) || math.IsInf(value, 0) {
			t.Errorf("metric %s = %v", m.Name, value)
		}
	}
}

func TestEndToEndRunMeetsTheContract(t *testing.T) {
	if testing.Short() {
		t.Skip("opens sockets")
	}
	for _, workload := range []string{LiveUncontended, SimStabilize} {
		var out, errOut bytes.Buffer
		code, err := run([]string{"--workload", workload, "--seed", "3", "--seconds", "1.5", "--trace", "0"}, &out, &errOut)
		if code != 0 || err != nil {
			t.Fatalf("%s: exit %d, %v\n%s", workload, code, err, errOut.String())
		}
		contract(t, out.String(), EndToEnd)
		var line struct{ Metrics map[string]Metric }
		if err := json.Unmarshal(out.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		for _, m := range EndToEnd {
			if line.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, an end-to-end metric must never be 0", workload, m.Name, line.Metrics[m.Name].Value)
			}
		}
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("opens sockets")
	}
	spansPath := filepath.Join(t.TempDir(), "spans.json")
	var out, errOut bytes.Buffer
	code, err := run([]string{"--workload", LiveSaturated, "--seconds", "1.5", "--trace", "1", "--trace-out", spansPath}, &out, &errOut)
	if code != 0 || err != nil {
		t.Fatalf("exit %d, %v\n%s", code, err, errOut.String())
	}
	contract(t, out.String(), PerLayer)
	raw, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	var runs map[string][]Span
	if err := json.Unmarshal(raw, &runs); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range runs[LiveSaturated] {
		names[s.Name] = true
	}
	for _, want := range []string{spanEntry, spanRequest, spanChaos, spanHop, spanTurnaround, spanToEntry, spanRelease} {
		if !names[want] {
			t.Errorf("no %s span written", want)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"--agree", "only-one.json"},
		{"--no-such-flag"},
	} {
		var out, errOut bytes.Buffer
		if code, _ := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d with %q on stdout, want 2 and nothing", args, code, out.String())
		}
	}
}
