// Package twin is the analytical capacity model — the repository's fourth
// execution substrate. Where sim, runtime, and wire *measure* a wrapped
// system, twin *predicts* it in closed form: expected CS entries, requests,
// and program-message cost over a horizon, W' resend volume, the
// deadlock-recovery latency of the §4 scenario, and the saturation point,
// all as functions of n, the shard count S, the wrapper timeout δ, the
// workload's think/hold parameters, and the link-delay bounds.
//
// The model mirrors the substrates' mechanics piece by piece:
//
//   - Clients are workload.Driver loops: think starts at release, so the
//     entry cycle is think + request→entry wait + hold, with no renewal
//     residual between a release and the next request.
//
//   - The critical section is one FCFS station per shard whose service
//     time is the hold plus one link delay (the release→grant handoff).
//     Queueing comes from exact Mean Value Analysis with a residual
//     correction for the near-deterministic service (an M/D/1-style
//     halving of the in-service remainder, scaled by the service cv²).
//
//   - An uncontended request enters after its request/permission round
//     trip to every peer: the expected max over n−1 two-leg trips, each
//     leg uniform on the integer delay range — an exact finite sum.
//
//   - Message cost needs no queueing: Ricart-Agrawala spends exactly
//     2(n−1) program messages per entry (requests out, permissions back;
//     RA has no release messages) and Lamport 3(n−1). W' resends echo:
//     a resent request provokes a permission reply, which is why measured
//     msgs/entry sits above the protocol constant at small δ.
//
//   - W' is armed when a request is issued and falls due every δ while it
//     waits, so it fires once per full δ a request waits. That count needs
//     the wait's distribution, not only its mean: the round trip's exact
//     distribution, a binomial count of processes queued ahead, and the
//     exact sum of the link delays of their services.
//
//   - §4 deadlock recovery is scheduling arithmetic: every process turns
//     hungry one tick before the fault, every W' falls due δ later, and
//     the winner re-enters once the resent requests refresh its local
//     copies — δ−1 ticks after the fault plus the expected max one-way
//     flight.
//
// Everything here is arithmetic on the parameters: no RNG, no clock, no
// substrate. The gblint layering rule for this package enforces that —
// twin may read the obs snapshot vocabulary and the workload spec algebra
// (to derive means), never a protocol, wrapper, or execution substrate.
// Predictions are exposed through the same obs-snapshot shape the
// substrates publish (Prediction.Snapshot), so the harness diffs predicted
// against measured runs with the one snapshot-diff helper.
package twin

import (
	"math"

	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/workload"
)

// Algorithm names, matching harness.Algo.String() so call sites can pass
// the measured run's own label.
const (
	AlgoRA      = "ricart-agrawala"
	AlgoLamport = "lamport"
)

// Params describes the system being predicted. Times are in abstract ticks
// — the same unit the workload draws use, so one Params predicts the
// simulator (1 tick = 1 virtual tick) and the live cluster (1 tick = 1 ms,
// harness.LiveTick) alike.
type Params struct {
	// N is the number of processes; each runs one client.
	N int
	// Shards is the number of independent critical sections (default 1).
	// Clients spread uniformly: contention is per shard.
	Shards int
	// Algo names the protocol (AlgoRA default, AlgoLamport). It only
	// changes the per-entry message constant.
	Algo string
	// Delta is the W' timeout δ in ticks. 0 is the eager W (evaluated
	// every tick a process is hungry); negative disables the wrapper (no
	// resend volume and no deadlock recovery — ConvergenceTicks becomes
	// +Inf).
	Delta int64
	// MinDelay/MaxDelay bound the link delay, drawn uniformly on the
	// integers [MinDelay, MaxDelay]. Defaults 1 and 5 (the sim's).
	MinDelay, MaxDelay int64
	// ThinkMin/ThinkMax bound the closed-loop think draw, uniform on the
	// integers (defaults 5 and 20, the sim's client). Ignored when
	// ThinkMean is set.
	ThinkMin, ThinkMax int64
	// ThinkMean, when > 0, is the mean think (or open-loop arrival) gap of
	// any other shape: only the mean enters the model.
	ThinkMean float64
	// HoldMean is the mean CS hold time in ticks (default 3, the sim's
	// EatTime).
	HoldMean float64
	// Horizon is the predicted run length in ticks.
	Horizon int64
	// MaxRequests caps each client's requests (0 = unbounded); the sim's
	// liveness-drain bound.
	MaxRequests int
}

func (p Params) withDefaults() Params {
	if p.N < 2 {
		p.N = 2
	}
	if p.Shards < 1 {
		p.Shards = 1
	}
	if p.Algo == "" {
		p.Algo = AlgoRA
	}
	if p.MinDelay <= 0 {
		p.MinDelay = 1
	}
	if p.MaxDelay < p.MinDelay {
		p.MaxDelay = 5
	}
	if p.ThinkMean <= 0 && (p.ThinkMin <= 0 || p.ThinkMax < p.ThinkMin) {
		p.ThinkMin, p.ThinkMax = 5, 20
	}
	if p.HoldMean <= 0 {
		p.HoldMean = 3
	}
	if p.Horizon <= 0 {
		p.Horizon = 20000
	}
	return p
}

// Prediction is the closed-form forecast for one Params.
type Prediction struct {
	// Entries and Requests are expected totals over the horizon.
	Entries, Requests float64
	// EntryRate is expected entries per tick across all shards.
	EntryRate float64
	// MsgsPerEntry is the program-message cost per CS entry: the
	// protocol's fault-free constant plus the permission echo of W'
	// resends. ProgramMsgs is the horizon total.
	MsgsPerEntry float64
	ProgramMsgs  float64
	// WaitTicks is the expected request→entry latency.
	WaitTicks float64
	// WrapperMsgsPerEntry estimates W' resend volume: one firing per full
	// δ a request waits, resending to every peer whose reply has not come
	// back. This is the model's loosest number (the stale-peer count varies
	// with timestamp interleaving); treat it as a flood indicator with a
	// stated wide tolerance, not a ≤25% prediction.
	WrapperMsgsPerEntry float64
	WrapperMsgs         float64
	// ConvergenceTicks is the expected §4 deadlock-recovery latency: first
	// W' deadline after the fault plus the max one-way flight of the
	// resent requests. +Inf without a wrapper.
	ConvergenceTicks float64
	// SaturationRate is the system-wide entry-rate ceiling (entries/tick);
	// Utilization is the per-shard station load in [0,1] — how close the
	// offered load sits to that ceiling.
	SaturationRate float64
	Utilization    float64
}

// Predict solves the model for p.
func Predict(p Params) Prediction {
	p = p.withDefaults()
	dMean := float64(p.MinDelay+p.MaxDelay) / 2
	service := p.HoldMean + dMean
	clients := float64(p.N) / float64(p.Shards)
	// Residual correction: service is hold (deterministic) + one uniform
	// delay, so an arriving request sees about half the in-service
	// remainder an exponential server would show.
	cv2 := uniformVar(p.MinDelay, p.MaxDelay) / (service * service)
	uncontended := eMaxRoundTrip(p.N-1, p.MinDelay, p.MaxDelay)
	think := p.ThinkMean
	if think <= 0 {
		think = float64(p.ThinkMin+p.ThinkMax) / 2
	}

	// The client is away from the station for its think draw plus the part
	// of the request round trip that is not the hand-off hop; the station's
	// response covers the rest of the cycle.
	away := think + uncontended - dMean
	resp, queue := mva(clients, service, away, cv2)
	wq := resp - service
	cycle := away + resp

	xClient := 1 / cycle
	pred := Prediction{
		EntryRate:      xClient * float64(p.N),
		WaitTicks:      uncontended + wq,
		SaturationRate: float64(p.Shards) / service,
		Utilization:    xClient * clients * service,
	}
	pred.Entries = pred.EntryRate * float64(p.Horizon)
	if p.MaxRequests > 0 {
		if most := float64(p.N * p.MaxRequests); pred.Entries > most {
			pred.Entries = most
		}
	}
	// Requests lead entries by the clients still hungry at the horizon.
	pred.Requests = pred.Entries + queue*float64(p.Shards)

	// W' resend volume. The deadline is armed when the request is issued
	// and falls due every δ while it waits, so a request fires once per
	// full δ it waits. Each firing resends to the peers whose reply has not
	// come back: the processes queued ahead of it, about half the station's
	// queue, and at least the one eating.
	if p.Delta > 0 {
		stale := queue / 2
		if stale < 1 {
			stale = 1
		}
		pred.WrapperMsgsPerEntry = fullPeriods(p, clients, queue, wq) * stale
	}
	pred.WrapperMsgs = pred.WrapperMsgsPerEntry * pred.Entries

	// Each resent request provokes one permission reply from a peer that
	// is not already ahead of the resender — the echo that lifts measured
	// msgs/entry above the protocol constant at small δ.
	echo := 2 / float64(p.N-1)
	if echo > 1 {
		echo = 1
	}
	pred.MsgsPerEntry = protocolMsgsPerEntry(p.Algo, p.N) + echo*pred.WrapperMsgsPerEntry
	pred.ProgramMsgs = pred.Entries * pred.MsgsPerEntry

	pred.ConvergenceTicks = convergenceTicks(p)
	return pred
}

// protocolMsgsPerEntry is the fault-free program-message cost of one CS
// entry. Ricart-Agrawala: n−1 requests out, n−1 permissions back, no
// release messages (permission travels in the deferred replies). Lamport:
// n−1 requests, n−1 acks, n−1 releases. Each shard's instance spans all n
// processes in this repo's design, so sharding leaves the constant alone.
func protocolMsgsPerEntry(algo string, n int) float64 {
	peers := float64(n - 1)
	if algo == AlgoLamport {
		return 3 * peers
	}
	return 2 * peers
}

// mva runs the Mean Value Analysis recursion for a closed network of one
// FCFS station (service s, squared coefficient of variation cv2) and a
// think stage z, returning the station response time and mean queue length
// at the given population (fractional populations interpolate linearly).
// The cv2 term is the deterministic-service correction: an arriving
// customer sees the in-service remainder scaled by (1+cv2)/2 rather than a
// full memoryless service.
func mva(clients, s, z float64, cv2 float64) (resp, queue float64) {
	if clients <= 0 {
		return s, 0
	}
	n := int(clients)
	frac := clients - float64(n)
	var q, x float64
	var rLo, qLo float64 // values at population n
	steps := n
	if frac > 0 {
		steps = n + 1
	}
	for k := 1; k <= steps; k++ {
		util := x * s
		if util > 1 {
			util = 1
		}
		r := s*(1+q) - util*s*(1-cv2)/2
		if r < s {
			r = s
		}
		// The correction must not let k customers cycle faster than the
		// station serves: x = k/(z+r) ≤ 1/s.
		if sat := float64(k)*s - z; r < sat {
			r = sat
		}
		x = float64(k) / (z + r)
		q = x * r
		if k == n {
			rLo, qLo = r, q
		}
		if k == steps {
			resp, queue = r, q
		}
	}
	if n == 0 {
		// Sub-unit population: scale the single-customer point down.
		return s, frac * queue
	}
	if frac > 0 {
		resp = rLo + frac*(resp-rLo)
		queue = qLo + frac*(queue-qLo)
	}
	return resp, queue
}

// convergenceTicks predicts the §4 deadlock-recovery latency, counted from
// the fault. Every process requests one tick before the fault, which drops
// every request in flight (the harness's DeadlockFault schedule: requests
// at t=10, the drop at t=11), leaving each process hungry with every local
// copy stale. W' is armed when a process turns hungry, so every wrapper
// first falls due δ after the requests (the eager W, δ ≤ 1, a tick after):
// δ−1 ticks after the fault. Every wrapper fires at once, and the winner
// re-enters when the resent requests have refreshed all n−1 of its local
// copies — the expected max one-way flight over the discrete uniform link
// delays.
func convergenceTicks(p Params) float64 {
	if p.Delta < 0 {
		return math.Inf(1)
	}
	period := p.Delta
	if period < 1 {
		period = 1
	}
	return float64(period-1) + eMaxUniform(p.N-1, p.MinDelay, p.MaxDelay)
}

// uniformVar is the variance of the discrete uniform on [lo, hi].
func uniformVar(lo, hi int64) float64 {
	span := float64(hi - lo + 1)
	return (span*span - 1) / 12
}

// eMaxUniform is the exact expectation of the maximum of m iid discrete
// uniform [lo, hi] draws: Σ_x x·(F(x)^m − F(x−1)^m).
func eMaxUniform(m int, lo, hi int64) float64 {
	if m < 1 {
		return 0
	}
	span := float64(hi - lo + 1)
	e, prev := 0.0, 0.0
	for x := lo; x <= hi; x++ {
		c := math.Pow(float64(x-lo+1)/span, float64(m))
		e += float64(x) * (c - prev)
		prev = c
	}
	return e
}

// eMaxRoundTrip is the exact expectation of the maximum over m independent
// round trips (maxRoundTripPMF).
func eMaxRoundTrip(m int, lo, hi int64) float64 {
	if m < 1 {
		return 0
	}
	e := 0.0
	for i, q := range maxRoundTripPMF(m, lo, hi) {
		e += float64(2*lo+int64(i)) * q
	}
	return e
}

// maxRoundTripPMF is the distribution of the maximum over m independent
// round trips, each the sum of two iid discrete uniform [lo, hi] legs (the
// convolution is triangular on [2lo, 2hi]): entry i is P(max = 2lo + i).
func maxRoundTripPMF(m int, lo, hi int64) []float64 {
	span := int(hi - lo + 1)
	pmf := convolveUniform(convolveUniform([]float64{1}, span), span)
	cdf, prev := 0.0, 0.0
	for i, q := range pmf {
		cdf += q
		c := math.Pow(cdf, float64(m))
		pmf[i], prev = c-prev, c
	}
	return pmf
}

// fullPeriods is E[⌊W/δ⌋], the expected number of full timeout periods a
// request waits: how many times its armed W' falls due. The wait W is the
// request's round trip plus its queueing. The request finds each other
// client of its shard queued with probability queue/(clients−1), so the
// count a ahead is binomial. Behind a ≥ 1 of them it waits out the rest of
// the service in progress and a−1 full services, each a hold plus one link
// delay; the rest is sized so that E[W] is the model's WaitTicks. The link
// delays are summed exactly: their spread is what gives the wait a tail
// past δ when its mean sits well below.
func fullPeriods(p Params, clients, queue, wq float64) float64 {
	others := int(math.Ceil(clients)) - 1
	var ahead, rest float64
	if others > 0 && queue > 0 {
		ahead = math.Min(1, queue/float64(others))
		busy := 1 - math.Pow(1-ahead, float64(others)) // P(a ≥ 1)
		service := p.HoldMean + float64(p.MinDelay+p.MaxDelay)/2
		rest = (wq - (ahead*float64(others)-busy)*service) / busy
	}
	span := int(p.MaxDelay - p.MinDelay + 1)
	trip := maxRoundTripPMF(p.N-1, p.MinDelay, p.MaxDelay)
	links := []float64{1} // P(a−1 link delays sum to (a−1)·MinDelay + k)
	e := 0.0
	for a := 0; a <= others; a++ {
		var base float64
		if a > 0 {
			base = rest + float64(a-1)*(p.HoldMean+float64(p.MinDelay))
		}
		if a > 1 {
			links = convolveUniform(links, span)
		}
		pa := binomialPMF(others, a, ahead)
		for i, pt := range trip {
			for k, pl := range links {
				w := float64(2*p.MinDelay+int64(i)) + base + float64(k)
				e += pa * pt * pl * math.Floor(w/float64(p.Delta))
			}
		}
	}
	return e
}

// convolveUniform adds one discrete uniform draw on span values to the
// distribution pmf.
func convolveUniform(pmf []float64, span int) []float64 {
	out := make([]float64, len(pmf)+span-1)
	for i, q := range pmf {
		for d := 0; d < span; d++ {
			out[i+d] += q / float64(span)
		}
	}
	return out
}

// binomialPMF is P(X = k) for X ~ Binomial(n, p).
func binomialPMF(n, k int, p float64) float64 {
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
}

// SpecMeans derives the think/hold means the model needs from a workload
// spec, weighting cohorts by their client share. Open-loop shapes
// contribute their mean inter-arrival gap; heavy-tailed holds use their
// closed-form means (capped draws are approximated by the uncapped mean —
// caps exist to drain liveness obligations, not to reshape the mass).
func SpecMeans(spec workload.Spec) (thinkMean, holdMean float64) {
	if len(spec.Cohorts) == 0 {
		spec = workload.DefaultSpec()
	}
	total := 0.0
	for _, c := range spec.Cohorts {
		w := float64(c.Weight)
		if w < 1 {
			w = 1
		}
		total += w
		thinkMean += w * arrivalMean(c.Arrival)
		holdMean += w * holdMeanOf(c.Hold)
	}
	return thinkMean / total, holdMean / total
}

// SpecParams fills the workload-shaped fields of a Params from a spec.
func SpecParams(p Params, spec workload.Spec) Params {
	p.ThinkMean, p.HoldMean = SpecMeans(spec)
	return p
}

// arrivalMean is the mean gap of one arrival shape.
func arrivalMean(a workload.Arrival) float64 {
	switch a.Kind {
	case workload.OpenPoisson:
		return a.MeanGap
	case workload.OpenBursty:
		// Rate averages over the on/off duty cycle.
		on, off := float64(a.On), float64(a.Off)
		if on <= 0 || a.BurstGap <= 0 {
			return a.MeanGap
		}
		return a.BurstGap * (on + off) / on
	case workload.OpenDiurnal:
		// The curve multiplies the rate; its mean multiplies the gap back.
		if len(a.Curve) == 0 {
			return a.MeanGap
		}
		sum := 0.0
		for _, c := range a.Curve {
			sum += c
		}
		if sum == 0 {
			return a.MeanGap
		}
		return a.MeanGap * float64(len(a.Curve)) / sum
	case workload.ClosedUniform:
		return float64(a.ThinkMin+a.ThinkMax) / 2
	default: // zero value: the sim's built-in think draw
		return float64(a.ThinkMin+a.ThinkMax) / 2
	}
}

// holdMeanOf is the mean of one hold distribution.
func holdMeanOf(h workload.Hold) float64 {
	switch h.Kind {
	case workload.HoldUniform:
		return float64(h.Min+h.Max) / 2
	case workload.HoldLognormal:
		return math.Exp(h.Mu + h.Sigma*h.Sigma/2)
	case workload.HoldPareto:
		if h.Alpha > 1 {
			return h.XMin * h.Alpha / (h.Alpha - 1)
		}
		// Infinite-mean tail: the cap is the only thing keeping draws
		// finite, so it dominates the mean.
		return float64(h.Cap)
	case workload.HoldFixed:
		return float64(h.Fixed)
	default: // zero value: fixed hold of h.Fixed ticks
		return float64(h.Fixed)
	}
}

// Snapshot renders the prediction in the substrates' obs-snapshot shape:
// the sim's counter names for the quantities the sim counts, twin_* gauges
// for the model-only quantities. Rates and ratios are scaled (×1000) into
// integers, matching the snapshot's int64-only vocabulary.
func (pr Prediction) Snapshot() *obs.Snapshot {
	s := obs.NewSnapshot()
	s.Counters["sim_cs_entries_total"] = round(pr.Entries)
	s.Counters["sim_requests_total"] = round(pr.Requests)
	s.Counters["sim_msgs_program_total"] = round(pr.ProgramMsgs)
	s.Counters["sim_msgs_wrapper_total"] = round(pr.WrapperMsgs)
	s.Gauges["twin_entry_rate_per_ktick"] = round(pr.EntryRate * 1000)
	s.Gauges["twin_msgs_per_entry_x1000"] = round(pr.MsgsPerEntry * 1000)
	s.Gauges["twin_wrapper_msgs_per_entry_x1000"] = round(pr.WrapperMsgsPerEntry * 1000)
	s.Gauges["twin_wait_ticks_x1000"] = round(pr.WaitTicks * 1000)
	s.Gauges["twin_conv_ticks_x1000"] = round(pr.ConvergenceTicks * 1000)
	s.Gauges["twin_saturation_per_ktick"] = round(pr.SaturationRate * 1000)
	s.Gauges["twin_utilization_x1000"] = round(pr.Utilization * 1000)
	return s
}

// round converts a prediction to the snapshot's integer vocabulary,
// clamping the +Inf convergence of unwrapped systems to MaxInt64.
func round(v float64) int64 {
	if math.IsInf(v, 1) || v >= math.MaxInt64 {
		return math.MaxInt64
	}
	if v <= 0 {
		return 0
	}
	return int64(v + 0.5)
}
