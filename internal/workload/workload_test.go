package workload

import (
	"bytes"
	"strconv"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/seeded"
)

// Same (spec, seed, n) ⇒ byte-identical schedule JSON: the acceptance
// criterion that makes any run replayable.
func TestRecordDeterministic(t *testing.T) {
	for _, name := range Names() {
		spec, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		a := Record(spec, 42, 6, 50).JSON()
		b := Record(spec, 42, 6, 50).JSON()
		if !bytes.Equal(a, b) {
			t.Errorf("workload %q: same seed produced different schedule JSON", name)
		}
		c := Record(spec, 43, 6, 50).JSON()
		if bytes.Equal(a, c) {
			t.Errorf("workload %q: different seeds produced identical schedules", name)
		}
	}
}

// A recorded schedule replays exactly the draws the generator produces.
func TestReplayMatchesGenerator(t *testing.T) {
	for _, name := range Names() {
		spec, _ := Preset(name)
		const n, items = 4, 40
		sched, err := LoadSchedule(Record(spec, 7, n, items).JSON())
		if err != nil {
			t.Fatalf("load %q: %v", name, err)
		}
		gen := NewGen(spec, 7, n)
		for id := 0; id < n; id++ {
			gc, rc := gen.Client(id), sched.Client(id)
			if gc.Open() != rc.Open() || gc.Cohort() != rc.Cohort() {
				t.Fatalf("workload %q client %d: open/cohort mismatch", name, id)
			}
			for j := 0; j < items; j++ {
				if g, r := gc.NextThink(), rc.NextThink(); g != r {
					t.Fatalf("workload %q client %d think %d: gen %d, replay %d", name, id, j, g, r)
				}
				if g, r := gc.NextHold(), rc.NextHold(); g != r {
					t.Fatalf("workload %q client %d hold %d: gen %d, replay %d", name, id, j, g, r)
				}
			}
		}
	}
}

// Replay cycles when the recorded sequence is exhausted instead of
// panicking or zeroing out.
func TestReplayCycles(t *testing.T) {
	spec, _ := Preset("uniform")
	sched := Record(spec, 1, 2, 3)
	c := sched.Client(0)
	var first [3]int64
	for i := range first {
		first[i] = c.NextThink()
	}
	for i := range first {
		if v := c.NextThink(); v != first[i] {
			t.Fatalf("cycle draw %d: got %d, want %d", i, v, first[i])
		}
	}
	// Ids beyond the recorded set reuse traces round-robin.
	if sched.Client(5).Cohort() != sched.Client(1).Cohort() {
		t.Fatal("out-of-range client id should wrap onto a recorded trace")
	}
}

// Draws are always ≥ 1 (the simulator schedules them as event delays and
// must make progress), including under degenerate parameters.
func TestDrawsPositive(t *testing.T) {
	degenerate := Spec{Name: "degenerate", Cohorts: []Cohort{
		{Name: "a", Arrival: Arrival{Kind: ClosedUniform, ThinkMin: 0, ThinkMax: 0}, Hold: Hold{Kind: HoldFixed, Fixed: 0}},
		{Name: "b", Arrival: Arrival{Kind: OpenPoisson, MeanGap: 0}, Hold: Hold{Kind: HoldLognormal, Mu: -10, Sigma: 0}},
		{Name: "c", Arrival: Arrival{Kind: OpenBursty, On: 0, Off: 0, BurstGap: 0}, Hold: Hold{Kind: HoldPareto, Alpha: 0, XMin: 0}},
		{Name: "d", Arrival: Arrival{Kind: OpenDiurnal, MeanGap: 0, Period: 0, Curve: nil}, Hold: Hold{Kind: HoldUniform, Min: 0, Max: 0}},
	}}
	g := NewGen(degenerate, 3, 8)
	for id := 0; id < 8; id++ {
		c := g.Client(id)
		for j := 0; j < 200; j++ {
			if v := c.NextThink(); v < 1 {
				t.Fatalf("client %d: think %d < 1", id, v)
			}
			if v := c.NextHold(); v < 1 {
				t.Fatalf("client %d: hold %d < 1", id, v)
			}
		}
	}
}

// The equal-bounds uniform draw (the old Int63n edge case) is exact.
func TestUniformEqualBounds(t *testing.T) {
	g := NewGen(UniformSpec(7, 7, 2), 1, 1)
	c := g.Client(0)
	for i := 0; i < 10; i++ {
		if v := c.NextThink(); v != 7 {
			t.Fatalf("think = %d, want 7", v)
		}
		if v := c.NextHold(); v != 2 {
			t.Fatalf("hold = %d, want 2", v)
		}
	}
}

// Hot-shard skew concentrates load on shard 0.
func TestHotShardSkew(t *testing.T) {
	spec, _ := Preset("hotshard")
	g := NewGen(spec, 9, 1)
	c := g.Client(0)
	counts := make([]int, 8)
	for i := 0; i < 4000; i++ {
		counts[c.NextResource(8)]++
	}
	if counts[0] <= counts[7]*2 {
		t.Fatalf("shard 0 (%d) not hot vs shard 7 (%d)", counts[0], counts[7])
	}
}

// Cohort assignment is proportional and deterministic.
func TestCohortAssignment(t *testing.T) {
	spec, _ := Preset("mixed") // weights 2:1:1
	seen := map[string]int{}
	g := NewGen(spec, 1, 8)
	for i := 0; i < 8; i++ {
		seen[g.Client(i).Cohort()]++
	}
	if seen["steady"] != 4 || seen["poisson"] != 2 || seen["bursty-heavy"] != 2 {
		t.Fatalf("cohort split = %v, want steady:4 poisson:2 bursty-heavy:2", seen)
	}
}

// Heavy-tailed holds actually produce a spread (and respect the cap).
func TestHeavyTailSpread(t *testing.T) {
	for _, name := range []string{"heavytail", "pareto"} {
		spec, _ := Preset(name)
		g := NewGen(spec, 11, 1)
		c := g.Client(0)
		min, max := int64(1<<62), int64(0)
		cap := spec.Cohorts[0].Hold.Cap
		for i := 0; i < 2000; i++ {
			v := c.NextHold()
			if v > cap {
				t.Fatalf("%s: hold %d exceeds cap %d", name, v, cap)
			}
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if max < 4*min {
			t.Errorf("%s: hold spread [%d, %d] suspiciously tight for a heavy tail", name, min, max)
		}
	}
}

// Bursty sources produce on/off structure: long silences between packed
// arrival trains.
func TestBurstyStructure(t *testing.T) {
	spec, _ := Preset("bursty")
	g := NewGen(spec, 5, 1)
	c := g.Client(0)
	var gaps []int64
	for i := 0; i < 500; i++ {
		gaps = append(gaps, c.NextThink())
	}
	long := 0
	off := spec.Cohorts[0].Arrival.Off
	for _, g := range gaps {
		if g >= off {
			long++
		}
	}
	if long == 0 {
		t.Fatal("bursty source never produced an off-window gap")
	}
	if long > len(gaps)/2 {
		t.Fatalf("bursty source produced %d/%d long gaps; bursts missing", long, len(gaps))
	}
}

func TestPresetUnknown(t *testing.T) {
	if _, err := Preset("nope"); err == nil {
		t.Fatal("Preset(nope) should error")
	}
}

func TestLoadScheduleRejectsEmpty(t *testing.T) {
	if _, err := LoadSchedule([]byte(`{"clients":[]}`)); err == nil {
		t.Fatal("empty schedule should be rejected")
	}
	if _, err := LoadSchedule([]byte(`{"clients":[{"client":0,"thinks":[],"holds":[]}]}`)); err == nil {
		t.Fatal("empty draw sequences should be rejected")
	}
	if _, err := LoadSchedule([]byte(`not json`)); err == nil {
		t.Fatal("malformed JSON should be rejected")
	}
}

// TestGenAllocations: a client and its three streams are one allocation
// (none for the clients NewGen builds, which share one slice), and a draw
// allocates nothing.
func TestGenAllocations(t *testing.T) {
	spec, _ := Preset("hotshard")
	g := NewGen(spec, 1, 8)
	if a := testing.AllocsPerRun(100, func() { _ = g.Client(3) }); a != 0 {
		t.Errorf("Gen.Client of a built client allocates %.1f, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { _ = g.Client(99) }); a != 1 {
		t.Errorf("Gen.Client of an ad-hoc client allocates %.1f, want 1", a)
	}
	small := testing.AllocsPerRun(10, func() { _ = NewGen(spec, 1, 8) })
	large := testing.AllocsPerRun(10, func() { _ = NewGen(spec, 1, 640) })
	if small != large {
		t.Errorf("NewGen allocates %.1f for 8 clients and %.1f for 640, want the same", small, large)
	}
	c := g.Client(0)
	c.NextResource(8) // binds the Zipf sampler once
	if a := testing.AllocsPerRun(100, func() { _ = c.NextThink() + c.NextHold() + int64(c.NextResource(8)) }); a != 0 {
		t.Errorf("a draw allocates %.1f, want 0", a)
	}
}

// TestClientStreamsAreNamed pins the naming scheme the client's streams are
// hashed from in pieces: client id's arrivals are the stream named
// "workload/<cohort>/<id>/arrive" under the workload seed.
func TestClientStreamsAreNamed(t *testing.T) {
	spec := UniformSpec(1, 1000, 3)
	g := NewGen(spec, 5, 12)
	for _, id := range []int{0, 11, 12345} {
		ref := seeded.New(seeded.Derive(5, "workload/uniform/"+strconv.Itoa(id)+"/arrive"))
		c := g.Client(id)
		for j := 0; j < 20; j++ {
			if got, want := c.NextThink(), 1+ref.Int63n(1000); got != want {
				t.Fatalf("client %d think %d: %d, want %d", id, j, got, want)
			}
		}
	}
}
