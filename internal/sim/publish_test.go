package sim

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// countersEqualMetrics requires every published sim_* counter, and the
// sim_time gauge, to read what Metrics and the clock read right now.
func countersEqualMetrics(t *testing.T, where string, s *Sim) {
	t.Helper()
	m := s.Metrics()
	if m.Events == 0 || m.Delivered == 0 {
		t.Fatalf("%s: nothing has happened yet (events=%d delivered=%d); the look is vacuous", where, m.Events, m.Delivered)
	}
	snap := s.Obs().Registry().Snapshot()
	for name, want := range map[string]int{
		"sim_msgs_program_total":      m.ProgramMsgs,
		"sim_msgs_wrapper_total":      m.WrapperMsgs,
		"sim_msgs_kind_invalid_total": m.kindCounts[0],
		"sim_msgs_kind_request_total": m.MsgsByKind(tme.Request),
		"sim_msgs_kind_reply_total":   m.MsgsByKind(tme.Reply),
		"sim_msgs_kind_release_total": m.MsgsByKind(tme.Release),
		"sim_msgs_delivered_total":    m.Delivered,
		"sim_requests_total":          m.Requests,
		"sim_releases_total":          m.Releases,
		"sim_events_total":            int(m.Events),
	} {
		if got := snap.Counter(name); got != int64(want) {
			t.Errorf("%s: %s = %d, Metrics says %d", where, name, got, want)
		}
	}
	if got := snap.Gauge("sim_time", -1); got != s.Now() {
		t.Errorf("%s: sim_time = %d, clock says %d", where, got, s.Now())
	}
}

// The event loop counts in Metrics only; the obs counters are brought up to
// date by publish. This walks every place user code can look at them.
func TestCountersEqualMetricsAtEveryLook(t *testing.T) {
	s := New(Config{
		N: 4, Seed: 1, NewNode: raFactory, Workload: true,
		NewWrapper: func(int) wrapper.Level2 { return wrapper.NewTimed(5) },
		Obs:        obs.New(obs.Options{}),
	})
	looked := false
	s.At(500, func(s *Sim) {
		looked = true
		countersEqualMetrics(t, "inside an At closure", s)
	})
	s.Run(1000)
	if !looked {
		t.Fatal("the At closure did not run")
	}
	countersEqualMetrics(t, "after the first Run", s)
	first := s.Metrics().Events
	s.Run(2000)
	if s.Metrics().Events == first {
		t.Fatal("the second Run processed nothing")
	}
	countersEqualMetrics(t, "after the second Run", s) // a double count would overshoot

	// The shard instances never go through Sim.Run: the group runs their
	// cores, and Sharded.Run publishes for them.
	sh := NewSharded(shardedCfg(1))
	looked = false
	sh.Shard(1).At(40, func(s *Sim) {
		looked = true
		countersEqualMetrics(t, "inside a shard's At closure", s)
	})
	sh.Run(100000)
	if !looked {
		t.Fatal("the shard's At closure did not run")
	}
	for k := 0; k < sh.Shards(); k++ {
		countersEqualMetrics(t, "after Sharded.Run", sh.Shard(k))
	}
}

// Without an obs bundle there is nothing to publish to, and publish must
// not even compare.
func TestPublishWithoutObsIsANoOp(t *testing.T) {
	s := New(Config{N: 3, Seed: 1, NewNode: raFactory, Workload: true})
	s.Run(500)
	if s.Metrics().Events == 0 {
		t.Fatal("nothing ran")
	}
	s.publish()
	if s.ins.published.Events != 0 {
		t.Fatalf("publish without Obs recorded %d events as published", s.ins.published.Events)
	}
}
