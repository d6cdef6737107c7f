package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("c_total", ""); again != c {
		t.Error("re-registration returned a different counter")
	}

	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Errorf("gauge = %d, want 5", g.Value())
	}
	g.SetMax(3)
	if g.Value() != 5 {
		t.Error("SetMax lowered the gauge")
	}
	g.SetMax(9)
	if g.Value() != 9 {
		t.Error("SetMax did not raise the gauge")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []int64{1, 10, 100})
	for _, v := range []int64{0, 1, 2, 10, 11, 1000} {
		h.Observe(v)
	}
	if h.count.Load() != 6 || h.sum.Load() != 1024 {
		t.Errorf("count=%d sum=%d", h.count.Load(), h.sum.Load())
	}
	snap := r.Snapshot().Histograms["h"]
	want := []int64{2, 2, 1, 1} // ≤1, ≤10, ≤100, +Inf
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, snap.Counts[i], w)
		}
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x", "", []int64{1})
	var tr *Trace
	var conv *Convergence
	var o *Obs

	c.Inc()
	c.Add(3)
	g.Set(1)
	g.SetMax(2)
	g.Add(1)
	h.Observe(5)
	tr.Emit(Event{})
	conv.RecordFault(1)
	conv.RecordViolation(2)
	conv.RecordProgress(3)
	if c.Value() != 0 || g.Value() != 0 || tr.Total() != 0 {
		t.Error("nil instruments recorded something")
	}
	if conv.LastFault() != -1 || conv.Time() != 0 {
		t.Error("nil convergence not at defaults")
	}
	if o.Registry() != nil || o.Tracer() != nil || o.Convergence() != nil {
		t.Error("nil Obs handed out non-nil parts")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	if err := (*Registry)(nil).WritePrometheus(io.Discard); err != nil {
		t.Error(err)
	}
}

// TestNilReceiversAreNoOps holds every instrument type to the package's
// disabled-path rule by reflection: each exported method, called on a nil
// pointer with zero-valued arguments (io.Discard for writers), returns
// without panicking. A method added without its nil guard fails here.
// Serve is skipped: it opens a listener, and the handler it serves is
// Handler's, which is called.
func TestNilReceiversAreNoOps(t *testing.T) {
	writer := reflect.TypeOf((*io.Writer)(nil)).Elem()
	for _, nilPtr := range []any{
		(*Counter)(nil), (*Gauge)(nil), (*Histogram)(nil), (*Trace)(nil),
		(*Convergence)(nil), (*Fairness)(nil), (*Registry)(nil), (*Obs)(nil),
	} {
		v := reflect.ValueOf(nilPtr)
		for i := 0; i < v.NumMethod(); i++ {
			m := v.Type().Method(i)
			if m.Name == "Serve" {
				continue
			}
			args := make([]reflect.Value, m.Type.NumIn()-1)
			for j := range args {
				if in := m.Type.In(j + 1); in == writer {
					args[j] = reflect.ValueOf(io.Discard)
				} else {
					args[j] = reflect.Zero(in)
				}
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("(%s).%s on a nil receiver panicked: %v", v.Type(), m.Name, r)
					}
				}()
				v.Method(i).Call(args)
			}()
		}
	}
}

// The enabled hot path must be allocation-free (acceptance criterion).
func TestHotOpsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []int64{1, 10, 100})
	tr := NewTrace(64, nil)
	conv := NewConvergence(r)
	checks := map[string]func(){
		"counter-inc":   func() { c.Inc() },
		"counter-add":   func() { c.Add(2) },
		"gauge-set":     func() { g.Set(3) },
		"gauge-setmax":  func() { g.SetMax(4) },
		"hist-observe":  func() { h.Observe(42) },
		"trace-emit":    func() { tr.Emit(Event{Time: 1, Kind: EvSend, A: 0, B: 1}) },
		"conv-progress": func() { conv.RecordProgress(9) },
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", name, allocs)
		}
	}
}

func TestTraceRingRetention(t *testing.T) {
	var got []Event
	tr := NewTrace(3, func(e Event) { got = append(got, e) })
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Time: int64(i), Kind: EvSend})
	}
	evs := tr.Events()
	if len(evs) != 3 || evs[0].Time != 2 || evs[2].Time != 4 {
		t.Errorf("retained = %v", evs)
	}
	if tr.Total() != 5 || tr.Dropped() != 2 {
		t.Errorf("total=%d dropped=%d", tr.Total(), tr.Dropped())
	}
	if len(got) != 5 {
		t.Errorf("callback saw %d events, want 5", len(got))
	}
	if !strings.Contains(evs[0].String(), "send") {
		t.Errorf("event String = %q", evs[0].String())
	}
}

func TestConvergenceWindow(t *testing.T) {
	r := NewRegistry()
	c := NewConvergence(r)
	c.RecordProgress(5) // before any fault: counts (window is the whole run)
	if c.ProgressAfterFault() != 1 || c.FirstProgressAfterFault() != 5 {
		t.Errorf("pre-fault progress: %d first=%d", c.ProgressAfterFault(), c.FirstProgressAfterFault())
	}
	c.RecordFault(10)
	if c.ProgressAfterFault() != 0 || c.FirstProgressAfterFault() != -1 {
		t.Error("fault did not reset the progress window")
	}
	c.RecordProgress(10) // at the fault instant: strictly-after rule excludes it
	if c.ProgressAfterFault() != 0 {
		t.Error("progress at the fault instant counted")
	}
	c.RecordViolation(12)
	c.RecordViolation(11) // out-of-order: the max is retained
	c.RecordProgress(15)
	c.RecordProgress(20)
	if c.LastFault() != 10 || c.LastViolation() != 12 || c.Time() != 2 {
		t.Errorf("lastFault=%d lastViolation=%d conv=%d", c.LastFault(), c.LastViolation(), c.Time())
	}
	if c.FirstProgressAfterFault() != 15 || c.ProgressAfterFault() != 2 {
		t.Errorf("first=%d progress=%d", c.FirstProgressAfterFault(), c.ProgressAfterFault())
	}
	if c.Violations() != 2 {
		t.Errorf("violations = %d", c.Violations())
	}
}

func TestSnapshotDeterministicJSON(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Register in different orders: snapshots must not care.
		r.Gauge("zz", "").Set(-1)
		r.Counter("aa_total", "").Add(3)
		r.Histogram("mm", "", []int64{1, 2}).Observe(2)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry()
	r2.Histogram("mm", "", []int64{1, 2}).Observe(2)
	r2.Counter("aa_total", "").Add(3)
	r2.Gauge("zz", "").Set(-1)
	if err := r2.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("snapshots differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), `"aa_total": 3`) {
		t.Errorf("JSON missing counter: %s", a.String())
	}
}

func TestSnapshotMerge(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("c_total", "").Add(2)
	r2.Counter("c_total", "").Add(3)
	r1.Gauge("last_time", "").Set(10)
	r2.Gauge("last_time", "").Set(7)
	r1.Histogram("h", "", []int64{5}).Observe(1)
	r2.Histogram("h", "", []int64{5}).Observe(9)

	m := NewSnapshot()
	m.Merge(r1.Snapshot())
	m.Merge(r2.Snapshot())
	if m.Counter("c_total") != 5 {
		t.Errorf("merged counter = %d", m.Counter("c_total"))
	}
	if m.Gauge("last_time", -1) != 10 {
		t.Errorf("merged gauge = %d", m.Gauge("last_time", -1))
	}
	h := m.Histograms["h"]
	if h.Count != 2 || h.Sum != 10 || h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Errorf("merged hist = %+v", h)
	}
	if m.Gauge("absent", -7) != -7 {
		t.Error("absent gauge did not fall back to default")
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("msgs_total", "messages").Add(4)
	r.Gauge("time", "virtual time").Set(99)
	h := r.Histogram("lat", "latency", []int64{1, 10})
	h.Observe(0)
	h.Observe(5)
	h.Observe(50)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE msgs_total counter", "msgs_total 4",
		"# TYPE time gauge", "time 99",
		"# TYPE lat histogram",
		`lat_bucket{le="1"} 1`, `lat_bucket{le="10"} 2`, `lat_bucket{le="+Inf"} 3`,
		"lat_sum 55", "lat_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Sorted order: "lat" block precedes "msgs_total" precedes "time".
	if strings.Index(out, "lat_sum") > strings.Index(out, "msgs_total 4") {
		t.Error("exposition not in sorted name order")
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared_total", "").Inc()
				r.Gauge("g", "").SetMax(int64(i))
				r.Histogram("h", "", []int64{10, 100}).Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total", "").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", "", nil).count.Load(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

// TestRegistryInstrumentsStayValidAcrossChunks registers several chunks'
// worth of counters and gauges from concurrent writers, each incrementing
// through every pointer it was handed while others keep carving new ones.
// Every value must read back from Snapshot, and every name must still
// return the pointer it first did: a chunk never moves once carved.
func TestRegistryInstrumentsStayValidAcrossChunks(t *testing.T) {
	const writers, per = 4, 3 * counterChunk
	r := NewRegistry()
	cs := make([][]*Counter, writers)
	gs := make([][]*Gauge, writers)
	name := func(kind string, w, i int) string { return fmt.Sprintf("%s_%d_%d", kind, w, i) }
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				cs[w] = append(cs[w], r.Counter(name("c", w, i), ""))
				gs[w] = append(gs[w], r.Gauge(name("g", w, i), ""))
				for j := range cs[w] {
					cs[w][j].Inc()
					gs[w][j].Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	if len(snap.Counters) != writers*per || len(snap.Gauges) != writers*per {
		t.Fatalf("snapshot holds %d counters and %d gauges, want %d of each", len(snap.Counters), len(snap.Gauges), writers*per)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < per; i++ {
			want := int64(per - i) // incremented once per later registration
			if got := snap.Counter(name("c", w, i)); got != want {
				t.Fatalf("counter %s = %d, want %d", name("c", w, i), got, want)
			}
			if got := snap.Gauge(name("g", w, i), -1); got != want {
				t.Fatalf("gauge %s = %d, want %d", name("g", w, i), got, want)
			}
			if r.Counter(name("c", w, i), "") != cs[w][i] || r.Gauge(name("g", w, i), "") != gs[w][i] {
				t.Fatalf("%s / %s re-registered as a different instrument", name("c", w, i), name("g", w, i))
			}
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	o := New(Options{TraceCapacity: 16})
	o.Reg.Counter("demo_total", "demo").Inc()
	o.Trace.Emit(Event{Time: 1, Kind: EvSend, A: 0, B: 1})
	addr, shutdown, err := o.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = shutdown() }()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "demo_total 1") {
		t.Errorf("/metrics: %q", out)
	}
	if out := get("/metrics.json"); !strings.Contains(out, `"demo_total": 1`) {
		t.Errorf("/metrics.json: %q", out)
	}
	if out := get("/trace"); !strings.Contains(out, "send") {
		t.Errorf("/trace: %q", out)
	}
	if out := get("/debug/pprof/"); !strings.Contains(out, "goroutine") {
		t.Errorf("/debug/pprof/: %q", out)
	}
}
