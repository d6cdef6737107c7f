package sim

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/channel"
	"github.com/graybox-stabilization/graybox/internal/lamport"
	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/ra"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/workload"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

func raFactory(id, n int) tme.Node      { return ra.New(id, n) }
func lamportFactory(id, n int) tme.Node { return lamport.New(id, n) }

func TestNewValidatesConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New did not panic without NewNode")
		}
	}()
	New(Config{N: 2})
}

func TestWorkloadRunRA(t *testing.T) {
	s := New(Config{N: 4, Seed: 1, NewNode: raFactory, Workload: true})
	s.Run(2000)
	m := s.Metrics()
	if len(m.Entries) == 0 {
		t.Fatal("no CS entries in a fault-free workload run")
	}
	if m.Requests == 0 || m.Releases == 0 {
		t.Fatalf("requests=%d releases=%d", m.Requests, m.Releases)
	}
	// Fault-free: every request eventually enters (within slack).
	if len(m.Entries) < m.Requests-4 {
		t.Errorf("entries=%d far below requests=%d", len(m.Entries), m.Requests)
	}
	if m.MsgsByKind(tme.Request) == 0 || m.MsgsByKind(tme.Reply) == 0 {
		t.Error("expected request and reply traffic")
	}
}

func TestWorkloadRunLamport(t *testing.T) {
	s := New(Config{N: 4, Seed: 2, NewNode: lamportFactory, Workload: true})
	s.Run(2000)
	m := s.Metrics()
	if len(m.Entries) == 0 {
		t.Fatal("no CS entries")
	}
	if m.MsgsByKind(tme.Release) == 0 {
		t.Error("lamport run has no release messages")
	}
}

// Mutual exclusion holds in fault-free runs: no two processes eat at once.
func TestFaultFreeMutualExclusion(t *testing.T) {
	for name, factory := range map[string]func(int, int) tme.Node{
		"ra": raFactory, "lamport": lamportFactory,
	} {
		s := New(Config{N: 5, Seed: 3, NewNode: factory, Workload: true})
		s.SetObserver(func(s *Sim) {
			eating := 0
			for i := 0; i < s.N(); i++ {
				if s.Node(i).Phase() == tme.Eating {
					eating++
				}
			}
			if eating > 1 {
				t.Errorf("%s: %d processes eating at t=%d", name, eating, s.Now())
				s.Stop()
			}
		})
		s.Run(3000)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int, int) {
		s := New(Config{N: 4, Seed: 99, NewNode: raFactory, Workload: true})
		s.Run(1500)
		m := s.Metrics()
		var lastEntry int64
		if len(m.Entries) > 0 {
			lastEntry = m.Entries[len(m.Entries)-1].Time
		}
		return lastEntry, len(m.Entries), m.ProgramMsgs
	}
	t1, e1, p1 := run()
	t2, e2, p2 := run()
	if t1 != t2 || e1 != e2 || p1 != p2 {
		t.Errorf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)", t1, e1, p1, t2, e2, p2)
	}
	// A different seed should (essentially always) differ somewhere.
	s := New(Config{N: 4, Seed: 100, NewNode: raFactory, Workload: true})
	s.Run(1500)
	if s.Metrics().ProgramMsgs == p1 && len(s.Metrics().Entries) == e1 {
		t.Log("different seed produced identical coarse metrics (possible but unlikely)")
	}
}

func TestFIFODeliveryOrder(t *testing.T) {
	// Deliveries pop channel heads, so per-channel order is FIFO even
	// though delivery delays vary.
	s := New(Config{N: 2, Seed: 7, NewNode: raFactory, MinDelay: 1, MaxDelay: 10})
	var delivered []tme.Message
	// Wrap node 1 observations via observer reading Delivered counter is
	// not enough; instead send distinguishable messages directly.
	s.At(0, func(s *Sim) {
		for i := 0; i < 5; i++ {
			ts := ltime.Timestamp{Clock: uint64(i + 1), PID: 0}
			s.send([]tme.Message{{Kind: tme.Reply, TS: ts, From: 0, To: 1}}, false)
		}
	})
	s.SetObserver(func(s *Sim) {
		// After each event, record node 1's view of 0's timestamp.
		ts, _ := s.Node(1).LocalREQ(0)
		if len(delivered) == 0 || delivered[len(delivered)-1].TS != ts {
			delivered = append(delivered, tme.Message{TS: ts})
		}
	})
	s.Run(100)
	for i := 1; i < len(delivered); i++ {
		if delivered[i].TS.Less(delivered[i-1].TS) {
			t.Fatalf("LocalREQ regressed: %v after %v (FIFO broken)",
				delivered[i].TS, delivered[i-1].TS)
		}
	}
	if s.Metrics().Delivered != 5 {
		t.Errorf("Delivered = %d, want 5", s.Metrics().Delivered)
	}
}

func TestManualRequestRelease(t *testing.T) {
	s := New(Config{N: 3, Seed: 5, NewNode: raFactory})
	s.Request(0)
	s.Run(100)
	if s.Node(0).Phase() != tme.Eating {
		t.Fatalf("node 0 phase = %v, want eating", s.Node(0).Phase())
	}
	if len(s.Metrics().Entries) != 1 {
		t.Fatalf("entries = %d", len(s.Metrics().Entries))
	}
	s.Release(0)
	s.Run(200)
	if s.Node(0).Phase() != tme.Thinking {
		t.Fatalf("after release phase = %v", s.Node(0).Phase())
	}
}

func TestWrapperMessagesAttributed(t *testing.T) {
	s := New(Config{
		N:       2,
		Seed:    8,
		NewNode: raFactory,
		NewWrapper: func(int) wrapper.Level2 {
			return wrapper.NewTimed(0) // eager W: evaluated every tick while hungry
		},
	})
	// Make node 0 hungry with its requests lost: drop them right away.
	s.Request(0)
	s.At(1, func(s *Sim) {
		s.Net().Chan(0, 1).Clear()
	})
	s.Run(50)
	if s.Metrics().WrapperMsgs == 0 {
		t.Error("wrapper sent no messages despite a stale local copy")
	}
	if s.Metrics().ProgramMsgs == 0 {
		t.Error("program messages not counted")
	}
}

// The paper's §4 scenario end-to-end: both requests dropped, unwrapped runs
// deadlock, wrapped runs recover. This is the headline behavioural claim
// (Theorem 8) at the simulator level.
func TestDeadlockWithoutWrapperRecoveryWithWrapper(t *testing.T) {
	scenario := func(withWrapper bool) *Sim {
		cfg := Config{N: 2, Seed: 11, NewNode: raFactory}
		if withWrapper {
			cfg.NewWrapper = func(int) wrapper.Level2 { return wrapper.NewTimed(5) }
		}
		s := New(cfg)
		s.Request(0)
		s.Request(1)
		// Drop every request in flight shortly after issue.
		s.At(1, func(s *Sim) {
			s.Net().Chan(0, 1).Clear()
			s.Net().Chan(1, 0).Clear()
		})
		s.Run(500)
		return s
	}

	bare := scenario(false)
	if n := len(bare.Metrics().Entries); n != 0 {
		t.Fatalf("unwrapped: %d entries, want deadlock (0)", n)
	}
	if bare.Node(0).Phase() != tme.Hungry || bare.Node(1).Phase() != tme.Hungry {
		t.Fatal("unwrapped: processes should be stuck hungry")
	}

	wrapped := scenario(true)
	if n := len(wrapped.Metrics().Entries); n == 0 {
		t.Fatal("wrapped: no recovery — wrapper failed to resolve the deadlock")
	}
}

func TestLevel1WrapperRuns(t *testing.T) {
	s := New(Config{
		N:       2,
		Seed:    13,
		NewNode: raFactory,
		Level1:  wrapper.PhaseGuard{},
		NewWrapper: func(int) wrapper.Level2 {
			return wrapper.NewTimed(3)
		},
		Workload: true,
	})
	// Break node 0's phase mid-run; PhaseGuard must repair it and the
	// workload continue.
	s.At(50, func(s *Sim) {
		s.Node(0).(tme.Corruptible).Corrupt(tme.Corruption{Phase: tme.Phase(7)})
	})
	s.Run(2000)
	if !s.Node(0).Phase().Valid() {
		t.Fatal("phase still invalid at horizon")
	}
	var node0After int
	for _, e := range s.Metrics().Entries {
		if e.ID == 0 && e.Time > 50 {
			node0After++
		}
	}
	if node0After == 0 {
		t.Error("node 0 never re-entered CS after phase repair")
	}
}

// Regression: a corrupted node that receives no messages must still be
// repaired — level-1 runs at every node after a fault closure, not only on
// deliveries. (Found by BenchmarkLevel1Ablation at a seed whose run was
// quiescent at the moment of corruption.)
func TestLevel1RepairsQuiescentNode(t *testing.T) {
	s := New(Config{
		N:       2,
		Seed:    1,
		NewNode: raFactory,
		Level1:  wrapper.PhaseGuard{},
		NewWrapper: func(int) wrapper.Level2 {
			return wrapper.NewTimed(5)
		},
	})
	// No workload, no messages: corrupt both nodes while fully quiescent.
	s.At(10, func(s *Sim) {
		for i := 0; i < s.N(); i++ {
			s.Node(i).(tme.Corruptible).Corrupt(tme.Corruption{Phase: tme.Phase(9)})
		}
	})
	s.Run(100)
	for i := 0; i < s.N(); i++ {
		if !s.Node(i).Phase().Valid() {
			t.Fatalf("node %d phase still invalid with no traffic", i)
		}
	}
}

func TestAtClampsPastTimes(t *testing.T) {
	s := New(Config{N: 1, Seed: 1, NewNode: raFactory})
	fired := int64(-1)
	s.At(5, func(s *Sim) {
		s.At(2, func(s *Sim) { fired = s.Now() }) // in the past
	})
	s.Run(100)
	if fired != 5 {
		t.Errorf("past event fired at %d, want clamped to 5", fired)
	}
}

func TestSnapshot(t *testing.T) {
	s := New(Config{N: 3, Seed: 17, NewNode: raFactory})
	s.Request(1)
	s.Run(0) // process only the request event at t=0
	g := s.Snapshot()
	if len(g.Nodes) != 3 {
		t.Fatalf("snapshot nodes = %d", len(g.Nodes))
	}
	if g.Nodes[1].Phase != tme.Hungry {
		t.Errorf("node 1 snapshot phase = %v", g.Nodes[1].Phase)
	}
	if len(g.InFlight) != 2 {
		t.Errorf("in flight = %d, want 2 requests", len(g.InFlight))
	}
	if got := g.Eating(); len(got) != 0 {
		t.Errorf("Eating = %v", got)
	}
}

func TestMaxRequestsCapsWorkload(t *testing.T) {
	s := New(Config{N: 2, Seed: 19, NewNode: raFactory, Workload: true, MaxRequests: 3})
	s.Run(100000)
	if s.Metrics().Requests > 6 {
		t.Errorf("requests = %d, want ≤ 6", s.Metrics().Requests)
	}
	if s.Metrics().Requests < 6 {
		t.Errorf("requests = %d, want 6 (cap should be reached)", s.Metrics().Requests)
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := New(Config{N: 2, Seed: 23, NewNode: raFactory, Workload: true})
	count := 0
	s.SetObserver(func(s *Sim) {
		count++
		if count == 10 {
			s.Stop()
		}
	})
	s.Run(1 << 40)
	if count != 10 {
		t.Errorf("processed %d events after Stop", count)
	}
}

func TestStringSummary(t *testing.T) {
	s := New(Config{N: 2, Seed: 29, NewNode: raFactory})
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestSendDropsMalformedMessages(t *testing.T) {
	s := New(Config{N: 2, Seed: 31, NewNode: raFactory})
	s.At(0, func(s *Sim) {
		s.send([]tme.Message{
			{From: -1, To: 0},
			{From: 0, To: 5},
			{From: 1, To: 1},
		}, false)
	})
	s.Run(10)
	if s.Metrics().ProgramMsgs != 0 {
		t.Errorf("malformed messages counted: %d", s.Metrics().ProgramMsgs)
	}
	if s.Net().TotalQueued() != 0 {
		t.Error("malformed messages queued")
	}
}

func TestScheduleDeliveryOnEmptyChannelIsNoop(t *testing.T) {
	s := New(Config{N: 2, Seed: 37, NewNode: raFactory})
	s.ScheduleDelivery(channel.Endpoint{Src: 0, Dst: 1}, 1)
	s.Run(10)
	if s.Metrics().Delivered != 0 {
		t.Error("delivered from an empty channel")
	}
}

// fixedStream is a deterministic draw stream for hook tests.
type fixedStream struct {
	think, hold int64
	open        bool
}

func (f *fixedStream) NextThink() int64     { return f.think }
func (f *fixedStream) NextHold() int64      { return f.hold }
func (f *fixedStream) NextResource(int) int { return 0 }
func (f *fixedStream) Open() bool           { return f.open }
func (f *fixedStream) Cohort() string       { return "fixed" }

// The NewClient hook replaces the built-in uniform draws: a closed-loop
// stream with fixed think/hold drives the run, and its hold time is
// honored (every meal lasts exactly the drawn ticks, not cfg.EatTime).
func TestNewClientHookDrivesDraws(t *testing.T) {
	s := New(Config{
		N: 3, Seed: 1, NewNode: raFactory, Workload: true,
		MaxRequests: 5, EatTime: 1,
		NewClient: func(id int) workload.Client {
			return &fixedStream{think: 7, hold: 4}
		},
	})
	var mealStart [8]int64
	s.SetObserver(func(s *Sim) {
		for i := 0; i < s.N(); i++ {
			if s.Node(i).Phase() == tme.Eating {
				if mealStart[i] == 0 {
					mealStart[i] = s.Now()
				}
			} else if mealStart[i] != 0 {
				if d := s.Now() - mealStart[i]; d < 4 {
					t.Errorf("node %d meal lasted %d ticks, want >= 4 (stream hold)", i, d)
				}
				mealStart[i] = 0
			}
		}
	})
	s.Run(5000)
	m := s.Metrics()
	if len(m.Entries) != 15 {
		t.Fatalf("entries=%d, want 15 (3 clients x 5 requests)", len(m.Entries))
	}
}

// An open-loop stream issues arrivals on its own clock: arrivals landing
// while the client is hungry or eating fall due on that clock and are
// served back to back on release, so the request budget is still spent in
// full.
func TestOpenLoopArrivalsQueueAndDrain(t *testing.T) {
	s := New(Config{
		N: 3, Seed: 1, NewNode: raFactory, Workload: true,
		MaxRequests: 6,
		// Arrivals every 2 ticks against 5-tick meals: most arrivals find
		// the client busy and must queue.
		NewClient: func(id int) workload.Client {
			return &fixedStream{think: 2, hold: 5, open: true}
		},
	})
	s.Run(8000)
	m := s.Metrics()
	if m.Requests != 18 {
		t.Fatalf("requests=%d, want 18 (3 clients x 6 budget)", m.Requests)
	}
	if len(m.Entries) != 18 {
		t.Fatalf("entries=%d, want every queued arrival served", len(m.Entries))
	}
}

// Without NewClient the built-in uniform client (think drawn from the
// master stream, hold EatTime) drives the run, deterministically.
func TestNilNewClientKeepsLegacyPath(t *testing.T) {
	run := func(hook func(int) workload.Client) (int, int) {
		s := New(Config{N: 4, Seed: 11, NewNode: raFactory, Workload: true,
			MaxRequests: 8, NewClient: hook})
		s.Run(5000)
		return len(s.Metrics().Entries), s.Metrics().ProgramMsgs
	}
	e1, p1 := run(nil)
	e2, p2 := run(nil)
	if e1 != e2 || p1 != p2 {
		t.Fatalf("built-in client nondeterministic: (%d,%d) vs (%d,%d)", e1, p1, e2, p2)
	}
}
