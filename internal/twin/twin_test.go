package twin

import (
	"math"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/workload"
)

// TestProtocolConstants pins the fault-free message cost: RA spends
// 2(n-1) program messages per entry, Lamport 3(n-1), and sharding does
// not change the constant (each shard instance spans all n processes).
func TestProtocolConstants(t *testing.T) {
	for _, tc := range []struct {
		algo string
		n    int
		want float64
	}{
		{AlgoRA, 3, 4}, {AlgoRA, 5, 8}, {AlgoRA, 8, 14},
		{AlgoLamport, 3, 6}, {AlgoLamport, 5, 12},
	} {
		if got := protocolMsgsPerEntry(tc.algo, tc.n); got != tc.want {
			t.Errorf("protocolMsgsPerEntry(%s, n=%d) = %v, want %v", tc.algo, tc.n, got, tc.want)
		}
	}
	// With a huge δ the wrapper echo vanishes and MsgsPerEntry approaches
	// the protocol constant from above.
	p := Predict(Params{N: 5, Delta: 1 << 20})
	if p.MsgsPerEntry < 8 || p.MsgsPerEntry > 8.1 {
		t.Errorf("MsgsPerEntry at huge δ = %v, want ≈8", p.MsgsPerEntry)
	}
}

// TestEMaxUniform checks the exact max-expectation sums against hand
// computations.
func TestEMaxUniform(t *testing.T) {
	// Single draw: the plain mean.
	if got := eMaxUniform(1, 1, 5); math.Abs(got-3) > 1e-12 {
		t.Errorf("eMaxUniform(1,1,5) = %v, want 3", got)
	}
	// Two draws on {1..5}: E = sum x((x/5)^2-((x-1)/5)^2) = 95/25.
	if got := eMaxUniform(2, 1, 5); math.Abs(got-3.8) > 1e-12 {
		t.Errorf("eMaxUniform(2,1,5) = %v, want 3.8", got)
	}
	// Degenerate range: the constant, regardless of m.
	if got := eMaxUniform(7, 4, 4); got != 4 {
		t.Errorf("eMaxUniform(7,4,4) = %v, want 4", got)
	}
	// Round trips of degenerate legs: twice the constant.
	if got := eMaxRoundTrip(3, 2, 2); got != 4 {
		t.Errorf("eMaxRoundTrip(3,2,2) = %v, want 4", got)
	}
	// Max of round trips dominates max of single legs.
	if eMaxRoundTrip(4, 1, 5) <= eMaxUniform(4, 1, 5) {
		t.Error("round-trip max should exceed one-way max")
	}
}

// TestCycleIsThinkWaitHold pins the client model: think starts at release,
// so one entry cycle is the think draw, the request→entry wait and the
// hold, whatever the think distribution's shape.
func TestCycleIsThinkWaitHold(t *testing.T) {
	for _, p := range []Params{
		{N: 5, Delta: 25, ThinkMin: 5, ThinkMax: 20},
		{N: 8, Delta: 10, ThinkMin: 30, ThinkMax: 60, HoldMean: 1},
		{N: 3, Delta: 25, ThinkMean: 40},
	} {
		pr := Predict(p)
		think := p.ThinkMean
		if think == 0 {
			think = float64(p.ThinkMin+p.ThinkMax) / 2
		}
		cycle := think + pr.WaitTicks + p.withDefaults().HoldMean
		if got := float64(p.N) / pr.EntryRate; math.Abs(got-cycle) > 1e-9 {
			t.Errorf("%+v: cycle = %v, want think+wait+hold = %v", p, got, cycle)
		}
	}
}

// TestPredictShape checks qualitative laws any capacity model must obey.
func TestPredictShape(t *testing.T) {
	base := Params{N: 5, Delta: 25, ThinkMin: 5, ThinkMax: 20, Horizon: 20000}
	p := Predict(base)
	if p.Entries <= 0 || p.EntryRate <= 0 {
		t.Fatalf("degenerate prediction: %+v", p)
	}
	if p.Requests < p.Entries {
		t.Errorf("requests %v < entries %v", p.Requests, p.Entries)
	}
	if p.Utilization <= 0 || p.Utilization > 1 {
		t.Errorf("utilization %v outside (0,1]", p.Utilization)
	}
	if p.EntryRate > p.SaturationRate*1.0001 {
		t.Errorf("entry rate %v exceeds saturation %v", p.EntryRate, p.SaturationRate)
	}

	// Slower clients: fewer entries, lower utilization.
	slow := base
	slow.ThinkMin, slow.ThinkMax = 200, 400
	ps := Predict(slow)
	if ps.Entries >= p.Entries || ps.Utilization >= p.Utilization {
		t.Errorf("slower think did not reduce load: %v vs %v entries", ps.Entries, p.Entries)
	}

	// More shards: more capacity, shorter waits.
	sharded := base
	sharded.N, sharded.Shards = 16, 4
	flat := base
	flat.N = 16
	if Predict(sharded).WaitTicks >= Predict(flat).WaitTicks {
		t.Error("sharding did not shorten the predicted wait")
	}
	if Predict(sharded).SaturationRate <= Predict(flat).SaturationRate {
		t.Error("sharding did not raise the saturation ceiling")
	}

	// Larger δ: fewer resends, cheaper entries, slower recovery.
	tight, loose := base, base
	tight.Delta, loose.Delta = 5, 100
	pt, pl := Predict(tight), Predict(loose)
	if pt.WrapperMsgsPerEntry <= pl.WrapperMsgsPerEntry {
		t.Error("smaller δ should resend more")
	}
	if pt.MsgsPerEntry <= pl.MsgsPerEntry {
		t.Error("smaller δ should cost more program messages (permission echo)")
	}
	if pt.ConvergenceTicks >= pl.ConvergenceTicks {
		t.Error("smaller δ should recover faster")
	}

	// No wrapper: no resends, no recovery.
	bare := base
	bare.Delta = -1
	pb := Predict(bare)
	if pb.WrapperMsgs != 0 {
		t.Errorf("unwrapped system predicted %v wrapper msgs", pb.WrapperMsgs)
	}
	if !math.IsInf(pb.ConvergenceTicks, 1) {
		t.Errorf("unwrapped convergence = %v, want +Inf", pb.ConvergenceTicks)
	}
}

// TestConvergenceArithmetic pins the §4 recovery formula: the armed
// deadline's gap after the fault plus the expected max one-way flight.
func TestConvergenceArithmetic(t *testing.T) {
	// n=3, δ=10, requests at 10, fault at 11: first deadline at t=20,
	// flight E[max2 U{1..5}] = 3.8 → 9 + 3.8.
	p := Predict(Params{N: 3, Delta: 10})
	if math.Abs(p.ConvergenceTicks-12.8) > 1e-9 {
		t.Errorf("conv(n=3, δ=10) = %v, want 12.8", p.ConvergenceTicks)
	}
	// δ=50: deadline at t=60 → 49 + 3.8.
	p = Predict(Params{N: 3, Delta: 50})
	if math.Abs(p.ConvergenceTicks-52.8) > 1e-9 {
		t.Errorf("conv(n=3, δ=50) = %v, want 52.8", p.ConvergenceTicks)
	}
	// Eager W (δ=0): falls due a tick after the requests, at the fault.
	p = Predict(Params{N: 3, Delta: 0})
	if math.Abs(p.ConvergenceTicks-3.8) > 1e-9 {
		t.Errorf("conv(n=3, eager) = %v, want 3.8", p.ConvergenceTicks)
	}
}

// TestFullPeriods pins the resend count's arithmetic. With no queueing the
// wait is the round trip alone, at most 2·MaxDelay: a δ above that never
// falls due, and δ=1 falls due once per tick of the expected round trip.
func TestFullPeriods(t *testing.T) {
	p := Params{N: 3, Delta: 11}.withDefaults()
	if got := fullPeriods(p, 1, 0, 0); got != 0 {
		t.Errorf("δ=11 over round trips of at most 10: %v periods, want 0", got)
	}
	p.Delta = 1
	if got, want := fullPeriods(p, 1, 0, 0), eMaxRoundTrip(2, 1, 5); math.Abs(got-want) > 1e-9 {
		t.Errorf("δ=1: %v periods, want the mean round trip %v", got, want)
	}
	// Four other clients, queue 4: all are always ahead, so the wait is the
	// round trip, the rest of the service in progress (wq less three
	// services of 6, here 2) and three holds with three link delays. Every
	// wait is whole, so with δ=1 the periods are the mean wait: the round
	// trip plus wq.
	if got, want := fullPeriods(p, 5, 4, 20), eMaxRoundTrip(2, 1, 5)+20; math.Abs(got-want) > 1e-9 {
		t.Errorf("δ=1 with wq=20: %v periods, want %v", got, want)
	}
}

// TestMaxRequestsCap checks the liveness-drain bound caps entries.
func TestMaxRequestsCap(t *testing.T) {
	p := Predict(Params{N: 4, Delta: 25, MaxRequests: 3, Horizon: 1 << 20})
	if p.Entries != 12 {
		t.Errorf("capped entries = %v, want N*MaxRequests = 12", p.Entries)
	}
}

// TestSpecMeans checks the workload-spec algebra against closed forms.
func TestSpecMeans(t *testing.T) {
	think, hold := SpecMeans(workload.UniformSpec(10, 30, 4))
	if think != 20 || hold != 4 {
		t.Errorf("UniformSpec means = (%v, %v), want (20, 4)", think, hold)
	}
	// Empty spec falls back to the default workload.
	think, hold = SpecMeans(workload.Spec{})
	if think <= 0 || hold <= 0 {
		t.Errorf("default spec means = (%v, %v)", think, hold)
	}
	// Poisson arrivals contribute MeanGap; lognormal holds exp(mu+s^2/2).
	spec := workload.Spec{Cohorts: []workload.Cohort{{
		Weight:  1,
		Arrival: workload.Arrival{Kind: workload.OpenPoisson, MeanGap: 50},
		Hold:    workload.Hold{Kind: workload.HoldLognormal, Mu: 1, Sigma: 0.5},
	}}}
	think, hold = SpecMeans(spec)
	if think != 50 {
		t.Errorf("poisson mean gap = %v, want 50", think)
	}
	want := math.Exp(1.125)
	if math.Abs(hold-want) > 1e-9 {
		t.Errorf("lognormal hold mean = %v, want %v", hold, want)
	}
	// Infinite-mean Pareto: the cap dominates.
	spec.Cohorts[0].Hold = workload.Hold{Kind: workload.HoldPareto, Alpha: 0.9, XMin: 2, Cap: 64}
	if _, hold = SpecMeans(spec); hold != 64 {
		t.Errorf("capped pareto hold mean = %v, want 64", hold)
	}
}

// TestSpecParams checks that a spec reaches the model through its means.
func TestSpecParams(t *testing.T) {
	p := SpecParams(Params{N: 4}, workload.UniformSpec(15, 35, 2))
	if p.ThinkMean != 25 {
		t.Errorf("uniform spec ThinkMean = %v, want 25", p.ThinkMean)
	}
	if p.HoldMean != 2 {
		t.Errorf("hold mean = %v, want 2", p.HoldMean)
	}
	open := workload.Spec{Cohorts: []workload.Cohort{{
		Weight:  1,
		Arrival: workload.Arrival{Kind: workload.OpenPoisson, MeanGap: 80},
		Hold:    workload.Hold{Kind: workload.HoldFixed, Fixed: 3},
	}}}
	p = SpecParams(Params{N: 4}, open)
	if p.ThinkMean != 80 {
		t.Errorf("open spec ThinkMean = %v, want 80", p.ThinkMean)
	}
}
