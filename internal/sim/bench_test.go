package sim

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/obs"
)

// BenchmarkSimThroughput measures raw simulator event throughput on a
// fault-free 8-process workload.
func BenchmarkSimThroughput(b *testing.B) {
	var events int64
	for i := 0; i < b.N; i++ {
		s := New(Config{
			N: 8, Seed: int64(i),
			NewNode:     raFactory,
			Workload:    true,
			MaxRequests: 20,
		})
		events += s.Run(1 << 20)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

// BenchmarkObsOverhead quantifies the observability tax on the raw
// simulator: "disabled" runs with a nil obs bundle, where every instrument
// call is a nil-receiver no-op — this is the path covered by the <2%
// overhead budget — and "enabled" runs with a live registry, convergence
// tracker, and trace ring.
func BenchmarkObsOverhead(b *testing.B) {
	workload := func(b *testing.B, mk func() *obs.Obs) {
		var events int64
		for i := 0; i < b.N; i++ {
			s := New(Config{
				N: 8, Seed: int64(i),
				NewNode:     raFactory,
				Workload:    true,
				MaxRequests: 20,
				Obs:         mk(),
			})
			events += s.Run(1 << 20)
		}
		b.ReportMetric(float64(events)/float64(b.N), "events/run")
	}
	b.Run("disabled", func(b *testing.B) {
		workload(b, func() *obs.Obs { return nil })
	})
	b.Run("enabled", func(b *testing.B) {
		workload(b, func() *obs.Obs { return obs.New(obs.Options{}) })
	})
	b.Run("enabled-trace", func(b *testing.B) {
		workload(b, func() *obs.Obs { return obs.New(obs.Options{TraceCapacity: 4096}) })
	})
}
