// Package obs is the unified observability subsystem: a metrics registry
// (atomic counters, gauges, fixed-bucket histograms), a trace-event sink
// (ring buffer + optional callback), and exporters (Prometheus text
// exposition, deterministic JSON snapshots, an opt-in HTTP endpoint with
// pprof). The simulator, the goroutine runtime, the wrappers, the fault
// injector, and the spec monitors all publish here; the experiment harness
// computes its tables from obs snapshots instead of parallel bookkeeping.
//
// Two design rules shape the API:
//
//   - The disabled path must cost (at most) nanoseconds. Every instrument
//     is a pointer whose methods are no-ops on a nil receiver, and a nil
//     *Registry hands out nil instruments — so instrumented code holds the
//     same fields and runs the same calls whether observability is on or
//     off, without a single branch at the call site.
//
//   - The enabled hot path must be allocation-free. Counter/gauge updates
//     are single atomic operations; histogram observations are an atomic
//     add into a preallocated bucket; trace emission copies a value into a
//     preallocated ring slot.
//
// Determinism: metric values driven by the seeded simulator are pure
// functions of the configuration and seed, and JSON snapshots marshal with
// sorted keys, so two runs with the same seed export byte-identical
// snapshots.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. A nil *Counter is
// a valid no-op instrument.
type Counter struct {
	v    atomic.Int64
	name string
	help string
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds d (negative deltas are ignored: counters are monotone).
func (c *Counter) Add(d int64) {
	if c == nil || d < 0 {
		return
	}
	c.v.Add(d)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the registered name ("" on a nil receiver).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is an atomic instantaneous value. A nil *Gauge is a valid no-op
// instrument.
type Gauge struct {
	v    atomic.Int64
	name string
	help string
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// SetMax stores v only if it exceeds the current value.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Add adds d to the current value.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Name returns the registered name ("" on a nil receiver).
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// Histogram is a fixed-bucket histogram of int64 observations. Bounds are
// inclusive upper bounds in ascending order; one implicit +Inf bucket is
// appended. A nil *Histogram is a valid no-op instrument.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Int64
	count  atomic.Int64
	name   string
	help   string
}

// Observe records v into its bucket.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the total number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Registry holds named instruments. Registration is idempotent (the same
// name returns the same instrument) and safe for concurrent use; the zero
// value is ready. A nil *Registry hands out nil instruments, making the
// entire downstream pipeline a no-op.
type Registry struct {
	mu     sync.Mutex
	cs     map[string]*Counter   // guarded by mu
	gs     map[string]*Gauge     // guarded by mu
	hs     map[string]*Histogram // guarded by mu
	sorted []string              // guarded by mu; cached sorted instrument names, nil when stale
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the counter registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.cs[name]; ok {
		return c
	}
	if r.cs == nil {
		r.cs = make(map[string]*Counter)
	}
	c := &Counter{name: name, help: help}
	r.cs[name] = c
	r.sorted = nil
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gs[name]; ok {
		return g
	}
	if r.gs == nil {
		r.gs = make(map[string]*Gauge)
	}
	g := &Gauge{name: name, help: help}
	r.gs[name] = g
	r.sorted = nil
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds on first use (bounds are copied). Returns nil on
// a nil registry.
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hs[name]; ok {
		return h
	}
	if r.hs == nil {
		r.hs = make(map[string]*Histogram)
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	h := &Histogram{name: name, help: help, bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	r.hs[name] = h
	r.sorted = nil
	return h
}

// names returns every instrument name in sorted order (exporters iterate
// it for deterministic output).
func (r *Registry) names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sorted == nil {
		r.sorted = make([]string, 0, len(r.cs)+len(r.gs)+len(r.hs))
		for n := range r.cs {
			r.sorted = append(r.sorted, n)
		}
		for n := range r.gs {
			r.sorted = append(r.sorted, n)
		}
		for n := range r.hs {
			r.sorted = append(r.sorted, n)
		}
		sort.Strings(r.sorted)
	}
	return r.sorted
}

// Obs bundles a registry, an optional trace sink, and the convergence
// tracker — the handle the execution substrates share. A nil *Obs disables
// observability end to end.
type Obs struct {
	// Reg is the metrics registry (never nil on a non-nil Obs).
	Reg *Registry
	// Trace is the trace-event sink; nil when tracing is off.
	Trace *Trace
	// Conv tracks the fault/violation/progress window from which
	// convergence time is derived.
	Conv *Convergence
	// Fair tracks per-client entry counts and latencies for the fairness
	// columns of the workload experiments.
	Fair *Fairness
}

// Options configures New.
type Options struct {
	// TraceCapacity is the trace ring-buffer size; 0 disables tracing.
	TraceCapacity int
	// OnEvent, when non-nil, is invoked synchronously for every trace
	// event (requires TraceCapacity > 0).
	OnEvent func(Event)
}

// New returns an enabled observability bundle.
func New(o Options) *Obs {
	ob := &Obs{Reg: NewRegistry()}
	if o.TraceCapacity > 0 {
		ob.Trace = NewTrace(o.TraceCapacity, o.OnEvent)
	}
	ob.Conv = NewConvergence(ob.Reg)
	ob.Fair = NewFairness(ob.Reg)
	return ob
}

// Registry returns the bundle's registry, nil on a nil receiver — so
// `o.Registry().Counter(...)` is safe (and a no-op) without observability.
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Reg
}

// Tracer returns the bundle's trace sink (nil when absent or on a nil
// receiver).
func (o *Obs) Tracer() *Trace {
	if o == nil {
		return nil
	}
	return o.Trace
}

// Convergence returns the bundle's convergence tracker (nil on a nil
// receiver).
func (o *Obs) Convergence() *Convergence {
	if o == nil {
		return nil
	}
	return o.Conv
}

// Fairness returns the bundle's fairness tracker (nil on a nil receiver).
func (o *Obs) Fairness() *Fairness {
	if o == nil {
		return nil
	}
	return o.Fair
}

// Convergence derives convergence telemetry online: the time of the last
// fault, the time of the last spec violation, and the progress events
// (e.g. CS entries) since the last fault. Convergence time — the paper's
// headline measurement — then falls out of the final snapshot as
// last_violation − last_fault instead of bespoke harness bookkeeping.
//
// All methods are no-ops on a nil receiver.
type Convergence struct {
	faults        *Counter
	violations    *Counter
	lastFault     *Gauge // -1 = no fault yet
	lastViolation *Gauge // -1 = clean run
	firstProgress *Gauge // first progress time strictly after the last fault; -1 = none
	progress      *Gauge // progress events strictly after the last fault
}

// NewConvergence registers the convergence instruments on r (nil r yields
// a nil, no-op tracker).
func NewConvergence(r *Registry) *Convergence {
	if r == nil {
		return nil
	}
	c := &Convergence{
		faults:        r.Counter("conv_faults_total", "faults injected"),
		violations:    r.Counter("conv_violations_total", "spec violations observed"),
		lastFault:     r.Gauge("conv_last_fault_time", "virtual time of the last injected fault (-1 = none)"),
		lastViolation: r.Gauge("conv_last_violation_time", "virtual time of the last spec violation (-1 = clean)"),
		firstProgress: r.Gauge("conv_first_progress_after_fault_time", "first progress event after the last fault (-1 = none)"),
		progress:      r.Gauge("conv_progress_after_fault", "progress events after the last fault"),
	}
	c.lastFault.Set(-1)
	c.lastViolation.Set(-1)
	c.firstProgress.Set(-1)
	return c
}

// RecordFault notes a fault at time t: the progress window restarts, so
// only progress strictly after the last fault counts toward convergence.
func (c *Convergence) RecordFault(t int64) {
	if c == nil {
		return
	}
	c.faults.Inc()
	c.lastFault.SetMax(t)
	c.firstProgress.Set(-1)
	c.progress.Set(0)
}

// RecordViolation notes a spec violation at time t.
func (c *Convergence) RecordViolation(t int64) {
	if c == nil {
		return
	}
	c.violations.Inc()
	c.lastViolation.SetMax(t)
}

// RecordProgress notes a progress event (a CS entry, a token delivery) at
// time t. Events at the exact time of the last fault do not count: the
// window is strictly after it, matching a post-hoc recount.
func (c *Convergence) RecordProgress(t int64) {
	if c == nil {
		return
	}
	if t <= c.lastFault.Value() {
		return
	}
	if c.firstProgress.Value() < 0 {
		c.firstProgress.Set(t)
	}
	c.progress.Add(1)
}

// LastFault returns the last fault time (-1 when none or nil receiver).
func (c *Convergence) LastFault() int64 {
	if c == nil {
		return -1
	}
	return c.lastFault.Value()
}

// LastViolation returns the last violation time (-1 when clean or nil
// receiver).
func (c *Convergence) LastViolation() int64 {
	if c == nil {
		return -1
	}
	return c.lastViolation.Value()
}

// Violations returns the total violation count.
func (c *Convergence) Violations() int64 {
	if c == nil {
		return 0
	}
	return c.violations.Value()
}

// FirstProgressAfterFault returns the time of the first progress event
// strictly after the last fault (-1 when none).
func (c *Convergence) FirstProgressAfterFault() int64 {
	if c == nil {
		return -1
	}
	return c.firstProgress.Value()
}

// ProgressAfterFault returns the number of progress events strictly after
// the last fault.
func (c *Convergence) ProgressAfterFault() int64 {
	if c == nil {
		return 0
	}
	return c.progress.Value()
}

// Time returns max(0, lastViolation − lastFault) when a violation followed
// a fault — the safety-convergence latency — and 0 otherwise.
func (c *Convergence) Time() int64 {
	if c == nil {
		return 0
	}
	lv, lf := c.lastViolation.Value(), c.lastFault.Value()
	if lv > lf {
		return lv - lf
	}
	return 0
}
