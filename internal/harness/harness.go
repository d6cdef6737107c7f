// Package harness measures the paper's claims: it configures faulty
// simulation runs, measures convergence with the Lspec/TME_Spec monitors,
// and renders the experiment tables of EXPERIMENTS.md. Every run is a
// deterministic function of its configuration.
package harness

import (
	"encoding/csv"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"text/tabwriter"

	"github.com/graybox-stabilization/graybox/internal/fault"
	"github.com/graybox-stabilization/graybox/internal/lamport"
	"github.com/graybox-stabilization/graybox/internal/lspec"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/ra"
	"github.com/graybox-stabilization/graybox/internal/scenario"
	"github.com/graybox-stabilization/graybox/internal/sim"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/workload"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// Algo selects a reference implementation of Lspec.
type Algo int

// The two reference programs of §5.
const (
	RA Algo = iota + 1
	Lamport
)

// String names the algorithm.
func (a Algo) String() string {
	switch a {
	case RA:
		return "ricart-agrawala"
	case Lamport:
		return "lamport"
	default:
		return fmt.Sprintf("algo(%d)", int(a))
	}
}

// Factory returns the node constructor for the algorithm.
func (a Algo) Factory() func(id, n int) tme.Node {
	switch a {
	case Lamport:
		return func(id, n int) tme.Node { return lamport.New(id, n) }
	default:
		return func(id, n int) tme.Node { return ra.New(id, n) }
	}
}

// NoWrapper as RunConfig.Delta disables the wrapper entirely.
const NoWrapper int64 = -1

// RunConfig describes one measured run.
type RunConfig struct {
	// Algo and N pick the system.
	Algo Algo
	N    int
	// Seed drives the simulation; FaultSeed the injector.
	Seed, FaultSeed int64
	// Delta is the wrapper timeout δ (0 = eager W, NoWrapper = none).
	Delta int64
	// Unrefined uses the unrefined W (resend to all) instead of the
	// refined guard; only meaningful when Delta ≥ 0.
	Unrefined bool
	// FaultTimes and FaultsPerBurst schedule injector bursts; Mix weights
	// the classes.
	FaultTimes     []int64
	FaultsPerBurst int
	Mix            fault.Mix
	// DeadlockFault, when true, replaces the random workload with the §4
	// scenario: every process requests simultaneously at t=10 and every
	// in-flight message is dropped at t=11, leaving all processes hungry
	// with mutually inconsistent local copies. (With a live workload this
	// state is unreachable deterministically — later requests from other
	// processes refill the hungry guards, so RA self-heals; the paper's
	// deadlock needs ALL processes hungry with ALL requests lost.)
	// FaultTimes/FaultsPerBurst/Mix still apply on top if set.
	DeadlockFault bool
	// Workload, when non-nil, shapes the client traffic (a workload.Gen or
	// a recorded workload.Schedule for replay). Nil keeps the simulator's
	// built-in uniform closed loop (think 5..20, hold 3).
	Workload workload.Source
	// Scenario, when non-nil, compiles to this run's fault plan, overriding
	// FaultTimes/FaultsPerBurst/Mix and the link-delay bounds — the same
	// declarative scenario a live run applies through the chaos proxy.
	Scenario *scenario.Spec
	// Horizon is the virtual-time end of the run. MaxRequests bounds the
	// per-process workload so liveness obligations can drain.
	Horizon     int64
	MaxRequests int
	// Monitor enables the Lspec/TME monitors (costs an incremental
	// snapshot per event). Message-economy experiments can turn it off.
	Monitor bool
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Algo == 0 {
		c.Algo = RA
	}
	if c.N == 0 {
		c.N = 4
	}
	if c.Horizon == 0 {
		c.Horizon = 20000
	}
	if c.MaxRequests == 0 {
		c.MaxRequests = 10
	}
	if c.FaultsPerBurst == 0 {
		c.FaultsPerBurst = 10
	}
	if c.Mix.Loss+c.Mix.Dup+c.Mix.Corrupt+c.Mix.State+c.Mix.Flush == 0 {
		c.Mix = fault.DefaultMix
	}
	return c
}

// RunResult summarizes one run.
type RunResult struct {
	// Converged reports a clean end state: no open starvation or stuck
	// eaters, and progress after the last fault.
	Converged bool
	// LastFault is the time of the last scheduled fault burst (-1 if none).
	LastFault int64
	// LastViolation is the time of the last safety/FCFS violation (-1 if
	// none). Requires Monitor.
	LastViolation int64
	// ConvergenceTime is max(0, LastViolation−LastFault) when monitoring;
	// the safety-convergence latency.
	ConvergenceTime int64
	// FirstEntryAfterFault is the first CS entry time after LastFault
	// (-1 when none) — the liveness-recovery latency for deadlock runs.
	FirstEntryAfterFault int64
	// Entries and EntriesAfterFault count CS entries.
	Entries, EntriesAfterFault int
	// Requests counts client requests issued.
	Requests int
	// ProgramMsgs and WrapperMsgs attribute message overhead.
	ProgramMsgs, WrapperMsgs int
	// Starved lists processes with open ME2 obligations at the horizon.
	Starved []int
	// Violations counts recorded safety/FCFS violations.
	Violations int
	// ViolationSummary breaks violations down by operator (monitored
	// runs only).
	ViolationSummary map[string]lspec.Stat
	// Obs is the final metrics snapshot of the run — the raw telemetry all
	// the fields above are computed from.
	Obs *obs.Snapshot
}

// WrapperMsgsPerEntry is the wrapper's steady-state message overhead.
func (r RunResult) WrapperMsgsPerEntry() float64 {
	if r.Entries == 0 {
		return float64(r.WrapperMsgs)
	}
	return float64(r.WrapperMsgs) / float64(r.Entries)
}

// Run executes one configured run and returns its measurements.
func Run(cfg RunConfig) RunResult { return RunObserved(cfg, nil) }

// RunObserved executes one configured run, publishing telemetry into o (a
// private bundle is created when o is nil — pass your own to keep the trace
// ring or serve the metrics over HTTP). Every RunResult field is computed
// from the final obs snapshot and convergence tracker: the telemetry IS the
// measurement, with no parallel harness bookkeeping to drift from it.
func RunObserved(cfg RunConfig, o *obs.Obs) RunResult {
	cfg = cfg.withDefaults()
	if o == nil {
		o = obs.New(obs.Options{})
	}
	simCfg := sim.Config{
		N:           cfg.N,
		Seed:        cfg.Seed,
		NewNode:     cfg.Algo.Factory(),
		Workload:    true,
		MaxRequests: cfg.MaxRequests,
		Obs:         o,
	}
	if cfg.Workload != nil {
		src := cfg.Workload
		simCfg.NewClient = src.Client
	}
	if cfg.Scenario != nil {
		plan := scenario.CompileSim(*cfg.Scenario, cfg.FaultSeed, cfg.Horizon)
		cfg.FaultTimes = plan.FaultTimes
		cfg.FaultsPerBurst = plan.FaultsPerBurst
		cfg.Mix = plan.Mix
		simCfg.MinDelay, simCfg.MaxDelay = plan.MinDelay, plan.MaxDelay
	}
	if cfg.DeadlockFault {
		// Dormant workload: the client never requests on its own (think
		// time beyond the horizon) but still releases after entries, so
		// every process can eventually be served once the deadlock is
		// broken.
		simCfg.ThinkMin, simCfg.ThinkMax = cfg.Horizon+1, cfg.Horizon+2
	}
	if cfg.Delta >= 0 {
		delta := cfg.Delta
		unrefined := cfg.Unrefined
		simCfg.NewWrapper = func(int) wrapper.Level2 {
			if unrefined {
				return &unrefinedTimed{delta: delta}
			}
			return wrapper.NewTimed(delta)
		}
	}
	s := sim.New(simCfg)

	var mon *lspec.Monitors
	var observe sim.Observer
	if cfg.Monitor {
		mon = lspec.New(cfg.N)
		mon.Instrument(o)
		observe = mon.AsObserver()
		s.SetObserver(observe)
	}

	if cfg.DeadlockFault {
		const reqAt = 10
		s.At(reqAt, func(s *sim.Sim) {
			for i := 0; i < s.N(); i++ {
				s.Request(i)
			}
		})
		// Requests are in flight for at least one tick (MinDelay ≥ 1);
		// dropping at reqAt+1 loses every one of them.
		s.At(reqAt+1, func(s *sim.Sim) { fault.DropAllInFlight(s) })
	}
	if len(cfg.FaultTimes) > 0 && cfg.FaultsPerBurst > 0 {
		in := fault.NewInjector(cfg.FaultSeed, cfg.Mix)
		in.Schedule(s, cfg.FaultTimes, cfg.FaultsPerBurst)
	}

	s.Run(cfg.Horizon)
	if observe != nil {
		// Monitors sample per event, and a deadlocked unwrapped system has
		// no events left (nothing polls): look once more at the horizon, so
		// a violation that persists to the end is dated there and not at the
		// last event.
		observe(s)
	}

	// Every measurement below is read back from the telemetry: the injector
	// stamped the fault window, the sim stamped entries/messages/requests,
	// the monitors stamped violations — the snapshot is the ground truth.
	conv := o.Convergence()
	snap := o.Registry().Snapshot()
	res := RunResult{
		LastFault:            conv.LastFault(),
		LastViolation:        conv.LastViolation(),
		ConvergenceTime:      conv.Time(),
		FirstEntryAfterFault: conv.FirstProgressAfterFault(),
		Entries:              int(snap.Counter("sim_cs_entries_total")),
		EntriesAfterFault:    int(conv.ProgressAfterFault()),
		Requests:             int(snap.Counter("sim_requests_total")),
		ProgramMsgs:          int(snap.Counter("sim_msgs_program_total")),
		WrapperMsgs:          int(snap.Counter("sim_msgs_wrapper_total")),
		Obs:                  snap,
	}
	if mon != nil {
		res.Violations = int(conv.Violations())
		res.ViolationSummary = mon.Summary()
		res.Starved = mon.StarvedProcesses()
		res.Converged = len(res.Starved) == 0 &&
			len(mon.StuckEaters()) == 0 &&
			res.EntriesAfterFault > 0
	} else {
		res.Converged = res.EntriesAfterFault > 0
	}
	hookMu.Lock()
	if runHook != nil {
		runHook(cfg, res)
	}
	hookMu.Unlock()
	return res
}

// runHook receives every completed run; see SetRunHook.
var (
	hookMu  sync.Mutex
	runHook func(RunConfig, RunResult)
)

// SetRunHook installs fn to be called (under a global mutex, so a plain
// closure is safe against ParMap concurrency) with every completed run's
// configuration and result. Pass nil to uninstall. The experiments CLI uses
// it to aggregate per-experiment obs snapshots for JSON export.
func SetRunHook(fn func(RunConfig, RunResult)) {
	hookMu.Lock()
	runHook = fn
	hookMu.Unlock()
}

// unrefinedTimed is the unrefined W behind a timeout, for the ablation.
type unrefinedTimed struct {
	delta int64
	next  int64
}

func (u *unrefinedTimed) Fire(now int64, v tme.SpecView) []tme.Message {
	if now < u.next {
		return nil
	}
	u.next = now + u.delta
	return wrapper.Unrefined(v)
}

// TimeoutDelta exposes δ, as wrapper.Timed does, so the simulator arms the
// deadline a period after the process turns hungry.
func (u *unrefinedTimed) TimeoutDelta() int64 { return u.delta }

// ParMap runs fn for each index 0..n-1 concurrently (bounded by the CPU
// count) and returns the results in index order. Experiment sweeps use it
// to parallelize independent seeded runs; since every run is a pure
// function of its configuration, the aggregated tables are identical to a
// sequential sweep.
func ParMap[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	workers := runtime.NumCPU()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes records caveats and the expected shape.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(t.Header, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	w.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as RFC-4180 CSV (header row first, notes omitted).
func (t *Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	_ = w.Write(t.Header)
	for _, row := range t.Rows {
		_ = w.Write(row)
	}
	w.Flush()
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", t.Title)
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Header, " | "))
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}
