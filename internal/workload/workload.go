// Package workload is the seed-deterministic traffic generator: it turns a
// declarative Spec — named client cohorts, each with an arrival shape and a
// hold-time distribution — into per-client draw streams that every
// execution substrate (the virtual-time simulator, the goroutine runtime,
// and the live TCP cluster) consumes through one code path. That path is
// Driver, the one client: the Client Spec as a pure state machine over a
// draw stream, which the substrates step and obey.
//
// The paper's experiments (and the speculation literature they connect to:
// Dubois & Guerraoui's common-case figure of merit) are judged *under
// load*, so the load must be as reproducible as the faults: every draw
// comes from a per-client named stream derived from the run seed with the
// same scheme as engine.Core.Stream (seeded.Derive), which makes a whole
// workload a pure function of (Spec, seed, n) — adding draws to one client
// cannot perturb another, and the same seed yields the same schedule on
// every substrate.
//
// Times are expressed in abstract ticks. Consumers own the unit: the
// simulator reads a tick as one virtual tick, the live harness as one
// millisecond (see harness.LiveTick). Because drawn values are unitless,
// a schedule recorded on one substrate (Record/Schedule) replays
// byte-identically on any other.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"github.com/graybox-stabilization/graybox/internal/seeded"
)

// ArrivalKind selects how a client's CS attempts arrive.
type ArrivalKind int

// Arrival shapes. NextThink and String dispatch over these; both must
// name every shape.
//
//gblint:kindset workload-arrival
const (
	// ClosedUniform is the classic closed loop: after each release the
	// client thinks for a uniform random time, then requests again. This is
	// the repository's historical default.
	ClosedUniform ArrivalKind = iota + 1
	// OpenPoisson is an open loop: arrivals form a Poisson process
	// (exponential gaps) independent of service completion; arrivals that
	// find the client busy queue and are served as soon as it frees.
	OpenPoisson
	// OpenBursty is an on/off source: Poisson arrivals at a high rate
	// during On windows, silence during Off windows.
	OpenBursty
	// OpenDiurnal modulates a Poisson process with a periodic rate curve —
	// the multi-period "day" of production traffic.
	OpenDiurnal
)

// String names the arrival shape.
func (k ArrivalKind) String() string {
	switch k {
	case ClosedUniform:
		return "closed-uniform"
	case OpenPoisson:
		return "poisson"
	case OpenBursty:
		return "bursty"
	case OpenDiurnal:
		return "diurnal"
	default:
		return fmt.Sprintf("arrival(%d)", int(k))
	}
}

// Open reports whether the shape is open-loop (gaps measured
// arrival-to-arrival rather than release-to-request).
func (k ArrivalKind) Open() bool { return k != ClosedUniform }

// Arrival describes one cohort's arrival process. Fields are interpreted
// per Kind; times are in ticks.
type Arrival struct {
	Kind ArrivalKind `json:"kind"`
	// ThinkMin/ThinkMax bound the closed-loop think time (ClosedUniform).
	ThinkMin int64 `json:"think_min,omitempty"`
	ThinkMax int64 `json:"think_max,omitempty"`
	// MeanGap is the mean inter-arrival gap (OpenPoisson, OpenDiurnal).
	MeanGap float64 `json:"mean_gap,omitempty"`
	// On/Off are the burst window lengths and BurstGap the mean gap inside
	// an On window (OpenBursty).
	On       int64   `json:"on,omitempty"`
	Off      int64   `json:"off,omitempty"`
	BurstGap float64 `json:"burst_gap,omitempty"`
	// Period and Curve shape the diurnal rate: the instantaneous rate is
	// Curve[i]/MeanGap over the i-th fraction of each Period (OpenDiurnal).
	Period int64     `json:"period,omitempty"`
	Curve  []float64 `json:"curve,omitempty"`
}

// HoldKind selects a cohort's CS hold-time distribution.
type HoldKind int

// Hold-time distributions. NextHold and String dispatch over these; both
// must name every distribution.
//
//gblint:kindset workload-hold
const (
	// HoldFixed holds the CS for a constant time.
	HoldFixed HoldKind = iota + 1
	// HoldUniform draws uniformly from [Min, Max].
	HoldUniform
	// HoldLognormal draws exp(N(Mu, Sigma)) — a mild heavy tail.
	HoldLognormal
	// HoldPareto draws XMin·U^(-1/Alpha) — a power-law heavy tail.
	HoldPareto
)

// String names the hold distribution.
func (k HoldKind) String() string {
	switch k {
	case HoldFixed:
		return "fixed"
	case HoldUniform:
		return "uniform"
	case HoldLognormal:
		return "lognormal"
	case HoldPareto:
		return "pareto"
	default:
		return fmt.Sprintf("hold(%d)", int(k))
	}
}

// Hold describes one cohort's CS hold-time distribution (ticks).
type Hold struct {
	Kind HoldKind `json:"kind"`
	// Fixed is the constant hold (HoldFixed).
	Fixed int64 `json:"fixed,omitempty"`
	// Min/Max bound a uniform hold (HoldUniform).
	Min int64 `json:"min,omitempty"`
	Max int64 `json:"max,omitempty"`
	// Mu/Sigma parameterize the lognormal (HoldLognormal).
	Mu    float64 `json:"mu,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
	// Alpha/XMin parameterize the Pareto tail (HoldPareto).
	Alpha float64 `json:"alpha,omitempty"`
	XMin  float64 `json:"xmin,omitempty"`
	// Cap truncates heavy-tailed draws (0 = uncapped). Keeping the tail
	// finite keeps liveness obligations drainable within a run horizon.
	Cap int64 `json:"cap,omitempty"`
}

// Skew describes hot-shard resource selection: each attempt targets one of
// Resources shards, drawn Zipf(S)-distributed so low-numbered shards are
// hot. The zero value (Resources ≤ 1) means a single shared resource.
type Skew struct {
	Resources int     `json:"resources,omitempty"`
	S         float64 `json:"s,omitempty"` // Zipf exponent, > 1 for skew
}

// Cohort is a named group of clients sharing one traffic shape.
type Cohort struct {
	Name string `json:"name"`
	// Weight is the cohort's share of clients (proportional; min 1).
	Weight  int     `json:"weight"`
	Arrival Arrival `json:"arrival"`
	Hold    Hold    `json:"hold"`
	Skew    Skew    `json:"skew,omitempty"`
}

// Spec is a complete workload description: a named set of cohorts.
type Spec struct {
	Name    string   `json:"name"`
	Cohorts []Cohort `json:"cohorts"`
}

// Client is one client's draw stream. All values are in ticks; consumers
// scale to their substrate's unit. Draws are deterministic per (spec, seed,
// client id) and independent across clients.
type Client interface {
	// NextThink returns the next gap: release-to-request think time for
	// closed-loop shapes, arrival-to-arrival gap for open-loop shapes.
	// Always ≥ 1.
	NextThink() int64
	// NextHold returns the next CS hold time. Always ≥ 1.
	NextHold() int64
	// NextResource returns the target shard for the next attempt, in
	// [0, n); hot shards have low ids. Uniform (or 0) without skew.
	NextResource(n int) int
	// Open reports whether the client is an open-loop source.
	Open() bool
	// Cohort names the cohort the client belongs to.
	Cohort() string
}

// Source hands out per-client draw streams. Gen (live generation) and
// Schedule (trace replay) both implement it.
type Source interface {
	Client(id int) Client
}

// Gen generates workload draws for n clients from spec and seed.
type Gen struct {
	spec    Spec
	seed    int64
	clients []genClient
}

// NewGen validates nothing it can tolerate: an empty spec falls back to
// DefaultSpec, zero-weight cohorts count as weight 1.
func NewGen(spec Spec, seed int64, n int) *Gen {
	if len(spec.Cohorts) == 0 {
		spec = DefaultSpec()
	}
	g := &Gen{spec: spec, seed: seed, clients: make([]genClient, n)}
	for i := range g.clients {
		g.clients[i].init(spec.Cohorts[cohortOf(spec, i)], seed, i)
	}
	return g
}

// Client returns client id's draw stream. Ids outside [0, n) get a stream
// of their own (deterministically derived), so ad-hoc callers cannot
// panic the generator.
func (g *Gen) Client(id int) Client {
	if id >= 0 && id < len(g.clients) {
		return &g.clients[id]
	}
	c := new(genClient)
	c.init(g.spec.Cohorts[cohortOf(g.spec, id)], g.seed, id)
	return c
}

// cohortOf assigns client i to a cohort index, proportionally by weight
// and deterministically: clients cycle through a weight-expanded pattern.
func cohortOf(spec Spec, i int) int {
	total := 0
	for _, c := range spec.Cohorts {
		total += weightOf(c)
	}
	if i < 0 {
		i = -i
	}
	slot := i % total
	for ci, c := range spec.Cohorts {
		slot -= weightOf(c)
		if slot < 0 {
			return ci
		}
	}
	return len(spec.Cohorts) - 1
}

func weightOf(c Cohort) int {
	if c.Weight < 1 {
		return 1
	}
	return c.Weight
}

// genClient is one client's generator state. Separate streams drive
// arrivals, holds, and resource picks, so consuming more of one cannot
// perturb the others. The streams are held by value: a client and its
// three streams are one allocation, or none inside Gen's slice.
type genClient struct {
	cohort   Cohort
	arrive   seeded.Stream
	hold     seeded.Stream
	shard    seeded.Stream
	zipf     *rand.Zipf
	zipfN    int
	cyclePos int64 // position inside the on/off or diurnal cycle
}

// init seeds client id's streams, named "workload/<cohort>/<id>/arrive"
// (and /hold, /shard). The name is hashed in pieces, never built.
func (g *genClient) init(c Cohort, seed int64, id int) {
	var digits [20]byte
	base := seeded.Extend(seeded.Hash("workload/"), c.Name)
	base = seeded.Extend(seeded.Extend(base, "/"), strconv.AppendInt(digits[:0], int64(id), 10))
	g.cohort = c
	g.arrive.Init(seed ^ int64(seeded.Extend(base, "/arrive")))
	g.hold.Init(seed ^ int64(seeded.Extend(base, "/hold")))
	g.shard.Init(seed ^ int64(seeded.Extend(base, "/shard")))
}

func (g *genClient) Cohort() string { return g.cohort.Name }

func (g *genClient) Open() bool { return g.cohort.Arrival.Kind.Open() }

// expGap draws an exponential gap with the given mean, floored at 1 tick.
func expGap(rng *rand.Rand, mean float64) int64 {
	if mean < 1 {
		mean = 1
	}
	g := int64(rng.ExpFloat64() * mean)
	if g < 1 {
		g = 1
	}
	return g
}

func uniformGap(rng *rand.Rand, min, max int64) int64 {
	if min < 1 {
		min = 1
	}
	if max <= min {
		return min
	}
	return min + rng.Int63n(max-min+1)
}

func (g *genClient) NextThink() int64 {
	a := g.cohort.Arrival
	switch a.Kind {
	case OpenPoisson:
		return expGap(g.arrive.Rand(), a.MeanGap)
	case OpenBursty:
		return g.burstyGap(a)
	case OpenDiurnal:
		return g.diurnalGap(a)
	case ClosedUniform:
		return uniformGap(g.arrive.Rand(), a.ThinkMin, a.ThinkMax)
	}
	// Zero-value configs take the historical closed-loop default.
	return uniformGap(g.arrive.Rand(), a.ThinkMin, a.ThinkMax)
}

// burstyGap draws Poisson gaps in "on-time" and converts them to real
// time by skipping Off windows: arrivals only happen inside On windows, so
// a drawn gap that crosses a window boundary carries the silent Off time
// with it. cyclePos tracks the client's real-time position in the cycle.
func (g *genClient) burstyGap(a Arrival) int64 {
	on, off := a.On, a.Off
	if on < 1 {
		on = 1
	}
	if off < 0 {
		off = 0
	}
	cycle := on + off
	want := expGap(g.arrive.Rand(), a.BurstGap) // on-time to consume
	real := int64(0)
	pos := g.cyclePos % cycle
	for want > 0 {
		if pos >= on { // inside an Off window: dead air until the next On
			real += cycle - pos
			pos = 0
			continue
		}
		take := on - pos
		if take > want {
			take = want
		}
		pos += take
		real += take
		want -= take
	}
	g.cyclePos = (g.cyclePos + real) % cycle
	if real < 1 {
		real = 1
	}
	return real
}

// diurnalGap modulates the Poisson rate by the curve: the multiplier for
// the current position scales the mean gap down (multiplier > 1 = faster
// arrivals).
func (g *genClient) diurnalGap(a Arrival) int64 {
	period := a.Period
	if period < 1 {
		period = 1
	}
	curve := a.Curve
	if len(curve) == 0 {
		curve = []float64{1}
	}
	idx := int((g.cyclePos % period) * int64(len(curve)) / period)
	if idx < 0 || idx >= len(curve) {
		idx = 0
	}
	m := curve[idx]
	if m <= 0 {
		m = 0.01
	}
	gap := expGap(g.arrive.Rand(), a.MeanGap/m)
	g.cyclePos += gap
	return gap
}

func (g *genClient) NextHold() int64 {
	h := g.cohort.Hold
	var v int64
	switch h.Kind {
	case HoldUniform:
		v = uniformGap(g.hold.Rand(), h.Min, h.Max)
	case HoldLognormal:
		v = int64(math.Exp(g.hold.Rand().NormFloat64()*h.Sigma + h.Mu))
	case HoldPareto:
		u := g.hold.Rand().Float64()
		if u <= 0 {
			u = 1e-9
		}
		alpha := h.Alpha
		if alpha <= 0 {
			alpha = 1.5
		}
		xmin := h.XMin
		if xmin < 1 {
			xmin = 1
		}
		v = int64(xmin * math.Pow(u, -1/alpha))
	case HoldFixed:
		v = h.Fixed
	default: // zero-value configs behave as HoldFixed
		v = h.Fixed
	}
	if h.Cap > 0 && v > h.Cap {
		v = h.Cap
	}
	if v < 1 {
		v = 1
	}
	return v
}

func (g *genClient) NextResource(n int) int {
	if n <= 1 {
		return 0
	}
	sk := g.cohort.Skew
	if sk.Resources > 1 && sk.S > 1 {
		if g.zipf == nil || g.zipfN != n {
			// rand.Zipf is deterministic given its source; rebinding on a
			// changed n keeps the rank space aligned with the caller's.
			g.zipf = rand.NewZipf(g.shard.Rand(), sk.S, 1, uint64(n-1))
			g.zipfN = n
		}
		return int(g.zipf.Uint64())
	}
	return g.shard.Rand().Intn(n)
}

// DefaultSpec is the repository's historical client behavior: one cohort,
// closed-loop uniform think in [5, 20] ticks, fixed 3-tick holds — the
// simulator's former built-in defaults, now expressed as data.
func DefaultSpec() Spec {
	return Spec{Name: "uniform", Cohorts: []Cohort{{
		Name:    "uniform",
		Weight:  1,
		Arrival: Arrival{Kind: ClosedUniform, ThinkMin: 5, ThinkMax: 20},
		Hold:    Hold{Kind: HoldFixed, Fixed: 3},
	}}}
}

// UniformSpec builds a single-cohort closed-loop uniform spec with explicit
// bounds — the adapter the live harness uses so its configured think/eat
// durations flow through the same draw path as every other shape.
func UniformSpec(thinkMin, thinkMax, hold int64) Spec {
	return Spec{Name: "uniform", Cohorts: []Cohort{{
		Name:    "uniform",
		Weight:  1,
		Arrival: Arrival{Kind: ClosedUniform, ThinkMin: thinkMin, ThinkMax: thinkMax},
		Hold:    Hold{Kind: HoldFixed, Fixed: hold},
	}}}
}

// presets is the named workload table. Times are in ticks (the simulator
// reads a tick as one virtual tick; the live harness as one millisecond).
var presets = map[string]func() Spec{
	"uniform": DefaultSpec,
	"poisson": func() Spec {
		return Spec{Name: "poisson", Cohorts: []Cohort{{
			Name:    "poisson",
			Arrival: Arrival{Kind: OpenPoisson, MeanGap: 15},
			Hold:    Hold{Kind: HoldFixed, Fixed: 3},
		}}}
	},
	"bursty": func() Spec {
		return Spec{Name: "bursty", Cohorts: []Cohort{{
			Name:    "bursty",
			Arrival: Arrival{Kind: OpenBursty, On: 40, Off: 160, BurstGap: 4},
			Hold:    Hold{Kind: HoldFixed, Fixed: 3},
		}}}
	},
	"diurnal": func() Spec {
		return Spec{Name: "diurnal", Cohorts: []Cohort{{
			Name: "diurnal",
			Arrival: Arrival{Kind: OpenDiurnal, MeanGap: 20, Period: 400,
				Curve: []float64{0.25, 0.5, 1.5, 3, 1.5, 0.5}},
			Hold: Hold{Kind: HoldFixed, Fixed: 3},
		}}}
	},
	"heavytail": func() Spec {
		return Spec{Name: "heavytail", Cohorts: []Cohort{{
			Name:    "heavytail",
			Arrival: Arrival{Kind: ClosedUniform, ThinkMin: 5, ThinkMax: 20},
			Hold:    Hold{Kind: HoldLognormal, Mu: 1.1, Sigma: 1.0, Cap: 60},
		}}}
	},
	"pareto": func() Spec {
		return Spec{Name: "pareto", Cohorts: []Cohort{{
			Name:    "pareto",
			Arrival: Arrival{Kind: ClosedUniform, ThinkMin: 5, ThinkMax: 20},
			Hold:    Hold{Kind: HoldPareto, Alpha: 1.5, XMin: 2, Cap: 80},
		}}}
	},
	"hotshard": func() Spec {
		return Spec{Name: "hotshard", Cohorts: []Cohort{{
			Name:    "hotshard",
			Arrival: Arrival{Kind: ClosedUniform, ThinkMin: 5, ThinkMax: 20},
			Hold:    Hold{Kind: HoldFixed, Fixed: 3},
			Skew:    Skew{Resources: 8, S: 1.3},
		}}}
	},
	"mixed": func() Spec {
		return Spec{Name: "mixed", Cohorts: []Cohort{
			{
				Name: "steady", Weight: 2,
				Arrival: Arrival{Kind: ClosedUniform, ThinkMin: 5, ThinkMax: 20},
				Hold:    Hold{Kind: HoldFixed, Fixed: 3},
			},
			{
				Name: "poisson", Weight: 1,
				Arrival: Arrival{Kind: OpenPoisson, MeanGap: 15},
				Hold:    Hold{Kind: HoldFixed, Fixed: 3},
			},
			{
				Name: "bursty-heavy", Weight: 1,
				Arrival: Arrival{Kind: OpenBursty, On: 40, Off: 160, BurstGap: 4},
				Hold:    Hold{Kind: HoldLognormal, Mu: 1.1, Sigma: 1.0, Cap: 60},
			},
		}}
	},
}

// Preset returns the named workload spec. The error lists the known names.
func Preset(name string) (Spec, error) {
	if f, ok := presets[name]; ok {
		return f(), nil
	}
	return Spec{}, fmt.Errorf("unknown workload %q (known: %v)", name, Names())
}

// Names lists the preset workload names, sorted.
func Names() []string {
	out := make([]string, 0, len(presets))
	//gblint:ignore determinism keys are sorted before returning
	for n := range presets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
