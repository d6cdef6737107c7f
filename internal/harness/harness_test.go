package harness

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"testing"
)

func TestAlgoString(t *testing.T) {
	if RA.String() != "ricart-agrawala" || Lamport.String() != "lamport" {
		t.Error("Algo names wrong")
	}
	if !strings.Contains(Algo(9).String(), "algo") {
		t.Error("unknown algo String")
	}
}

func TestRunFaultFreeConverges(t *testing.T) {
	for _, algo := range []Algo{RA, Lamport} {
		r := Run(RunConfig{Algo: algo, N: 3, Seed: 1, Delta: NoWrapper, Monitor: true})
		if !r.Converged {
			t.Errorf("%v fault-free run did not converge: %+v", algo, r)
		}
		if r.Violations != 0 {
			t.Errorf("%v fault-free run has %d violations", algo, r.Violations)
		}
		if r.WrapperMsgs != 0 {
			t.Errorf("%v unwrapped run counted wrapper msgs", algo)
		}
		if r.LastFault != -1 || r.LastViolation != -1 {
			t.Errorf("%v: LastFault=%d LastViolation=%d", algo, r.LastFault, r.LastViolation)
		}
	}
}

func TestRunDeadlockScenario(t *testing.T) {
	base := RunConfig{
		Algo: RA, N: 3, Seed: 2,
		DeadlockFault: true,
		Horizon:       20000,
	}
	unwrapped := base
	unwrapped.Delta = NoWrapper
	r := Run(unwrapped)
	if r.Converged {
		t.Errorf("unwrapped deadlock run converged: %+v", r)
	}
	if r.Entries != 0 {
		t.Errorf("unwrapped deadlock run had %d entries, want 0", r.Entries)
	}

	wrapped := base
	wrapped.Delta = 5
	r = Run(wrapped)
	if !r.Converged {
		t.Errorf("wrapped deadlock run did not converge: %+v", r)
	}
	if r.FirstEntryAfterFault < 0 {
		t.Error("no entry after fault despite wrapper")
	}
	// All three processes must eventually be served once the deadlock
	// breaks (the workload releases eaters even in deadlock mode).
	if r.Entries != 3 {
		t.Errorf("entries = %d, want 3", r.Entries)
	}
	if r.WrapperMsgs == 0 {
		t.Error("wrapper recovered without sending messages?")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := RunConfig{
		Algo: Lamport, N: 4, Seed: 7, FaultSeed: 8,
		Delta: 10, FaultTimes: []int64{100, 200}, Monitor: true,
	}
	a, b := Run(cfg), Run(cfg)
	if a.Entries != b.Entries || a.ProgramMsgs != b.ProgramMsgs ||
		a.LastViolation != b.LastViolation {
		t.Errorf("same config diverged: %+v vs %+v", a, b)
	}
}

// TestStabilizeRunAllocationsPerEntry is a tier-1 tripwire for the
// benchmark's sim-stabilize allocs_per_entry, which CI does not gate: one
// RA and one Lamport run of its shape (N=5, δ=5, ten faults at 200 and at
// 300, 30 requests each, monitors on) may make at most 1.05 heap
// allocations per CS entry, set-up included. The fan-outs, W' firings and
// replies write into buffers their producers own, messages queued behind a
// channel's head reuse the mesh's overflow slab, the protocols hold their
// clocks by value, the monitors keep violations as records in fixed blocks
// (rendered only when read), and the registry carves its instruments from
// chunks, so what remains is per run, not per step: W' keeps one buffer
// per process for the local copies it reads, and the monitors one for the
// moved set they drain. It reads about 0.99; two closures made per
// process per run take it to 1.08, and a violation allocated with its
// detail string and one allocation per registered instrument to about 1.75.
// Not parallel: it reads the process-wide malloc count. About 0.02 s.
func TestStabilizeRunAllocationsPerEntry(t *testing.T) {
	var before, after goruntime.MemStats
	entries := 0
	goruntime.ReadMemStats(&before)
	for i, algo := range []Algo{RA, Lamport} {
		r := Run(RunConfig{
			Algo: algo, N: 5,
			Seed: 1000 + int64(i), FaultSeed: 1500 + int64(i),
			Delta:      5,
			FaultTimes: []int64{200, 300}, FaultsPerBurst: 10,
			MaxRequests: 30, Horizon: 20000,
			Monitor: true,
		})
		entries += r.Entries
	}
	goruntime.ReadMemStats(&after)
	if entries == 0 {
		t.Fatal("no entries")
	}
	perEntry := float64(after.Mallocs-before.Mallocs) / float64(entries)
	t.Logf("%.2f allocations per entry over %d entries", perEntry, entries)
	if perEntry > 1.05 {
		t.Errorf("%.2f heap allocations per CS entry, want at most 1.05", perEntry)
	}
}

func TestWrapperMsgsPerEntry(t *testing.T) {
	r := RunResult{WrapperMsgs: 10, Entries: 5}
	if got := r.WrapperMsgsPerEntry(); got != 2 {
		t.Errorf("per entry = %v", got)
	}
	r = RunResult{WrapperMsgs: 7}
	if got := r.WrapperMsgsPerEntry(); got != 7 {
		t.Errorf("zero-entry per entry = %v", got)
	}
}

func TestUnrefinedWrapperSendsMore(t *testing.T) {
	base := RunConfig{
		Algo: RA, N: 4, Seed: 3,
		DeadlockFault: true,
		Horizon:       20000, Delta: 5,
	}
	refined := Run(base)
	unref := base
	unref.Unrefined = true
	u := Run(unref)
	if !refined.Converged || !u.Converged {
		t.Fatalf("both variants must converge: %v %v", refined.Converged, u.Converged)
	}
	if u.WrapperMsgs <= refined.WrapperMsgs {
		t.Errorf("unrefined (%d msgs) should exceed refined (%d msgs)",
			u.WrapperMsgs, refined.WrapperMsgs)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "b"},
		Notes:  []string{"a note"},
	}
	tab.AddRow("1", "2")
	s := tab.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "a note") {
		t.Errorf("String = %q", s)
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| 1 | 2 |") {
		t.Errorf("Markdown = %q", md)
	}
}

func TestParMapOrderAndCoverage(t *testing.T) {
	got := ParMap(37, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("ParMap[%d] = %d", i, v)
		}
	}
	if out := ParMap(0, func(i int) int { return i }); len(out) != 0 {
		t.Errorf("ParMap(0) = %v", out)
	}
}

// Parallel and sequential sweeps agree (each run is seed-deterministic).
func TestParMapMatchesSequentialRuns(t *testing.T) {
	cfg := func(seed int) RunConfig {
		return RunConfig{
			Algo: RA, N: 3, Seed: int64(seed), FaultSeed: int64(seed) + 1,
			Delta: 5, FaultTimes: []int64{100}, FaultsPerBurst: 5,
			MaxRequests: 10, Horizon: 10000, Monitor: true,
		}
	}
	par := ParMap(4, func(seed int) RunResult { return Run(cfg(seed)) })
	for seed := 0; seed < 4; seed++ {
		seq := Run(cfg(seed))
		if par[seed].Entries != seq.Entries ||
			par[seed].LastViolation != seq.LastViolation ||
			par[seed].ProgramMsgs != seq.ProgramMsgs {
			t.Fatalf("seed %d: parallel %+v ≠ sequential %+v", seed, par[seed], seq)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Header: []string{"a", "b"}}
	tab.AddRow("1", "x,y") // comma must be quoted
	got := tab.CSV()
	if !strings.Contains(got, "a,b\n") || !strings.Contains(got, `1,"x,y"`) {
		t.Errorf("CSV = %q", got)
	}
}

func TestViolationSummaryInRunResult(t *testing.T) {
	r := Run(RunConfig{
		Algo: RA, N: 2, Seed: 4, FaultSeed: 5,
		Delta:      5,
		FaultTimes: []int64{100}, FaultsPerBurst: 8,
		MaxRequests: 20, Horizon: 20000,
		Monitor: true,
	})
	total := 0
	for _, s := range r.ViolationSummary {
		total += s.Count
	}
	if total != r.Violations {
		t.Errorf("summary total %d ≠ Violations %d", total, r.Violations)
	}
}

func TestFig1Table(t *testing.T) {
	tab := Fig1()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	want := []string{"true", "true", "false", "false"}
	for i, w := range want {
		if tab.Rows[i][1] != w {
			t.Errorf("row %d result = %q, want %q", i, tab.Rows[i][1], w)
		}
	}
}

func TestQuickExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still take seconds")
	}
	if len(Experiments) != 18 {
		t.Fatalf("experiments = %d, want 18", len(Experiments))
	}
	for i, e := range Experiments {
		if want := fmt.Sprintf("E%d", i+1); e.ID != want {
			t.Fatalf("experiment %d is %s, want %s", i, e.ID, want)
		}
		tab, ok := e.Run(Quick)
		if !ok {
			t.Errorf("%s: gate diverged", e.ID)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("table %q has no rows", tab.Title)
		}
		if tab.String() == "" {
			t.Errorf("table %q renders empty", tab.Title)
		}
	}
}
