package sim

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// stretchChecker holds a run to Theorem 8's obligation on W'. It learns
// every process's hungry stretches from a per-event observer and audits
// every wrapper evaluation against them.
type stretchChecker struct {
	t     *testing.T
	name  string
	delta int64
	since []int64 // start of node i's hungry stretch; -1 when not hungry
	next  []int64 // when node i's next evaluation is owed
	evals int
}

// recorder is W' with every evaluation reported to the checker.
type recorder struct {
	*wrapper.Timed
	c  *stretchChecker
	id int
}

func (r recorder) Fire(now int64, v tme.SpecView) []tme.Message {
	r.c.eval(r.id, now, v.Phase())
	return r.Timed.Fire(now, v)
}

// eval checks one evaluation: inside a hungry stretch, at exactly its
// start + kδ for the next k.
func (c *stretchChecker) eval(i int, now int64, ph tme.Phase) {
	c.evals++
	if ph != tme.Hungry || c.since[i] < 0 {
		c.t.Errorf("%s: node %d evaluated at t=%d outside a hungry stretch (phase %v)", c.name, i, now, ph)
		return
	}
	if now != c.next[i] {
		c.t.Errorf("%s: node %d hungry since t=%d evaluated at t=%d, owed at t=%d",
			c.name, i, c.since[i], now, c.next[i])
	}
	c.next[i] = now + c.delta
}

// observe tracks stretches after every event. A stretch that ends at t
// owed every evaluation before t; one that falls due at t itself may lose
// the tie to the event that ended the stretch.
func (c *stretchChecker) observe(s *Sim) {
	now := s.Now()
	for i := range c.since {
		hungry := s.Node(i).Phase() == tme.Hungry
		switch {
		case hungry && c.since[i] < 0:
			c.since[i], c.next[i] = now, now+c.delta
		case !hungry && c.since[i] >= 0:
			c.owed(i, now-1)
			c.since[i] = -1
		}
	}
}

// owed reports an evaluation node i owed at or before t and never made.
func (c *stretchChecker) owed(i int, t int64) {
	if c.since[i] >= 0 && c.next[i] <= t {
		c.t.Errorf("%s: node %d hungry since t=%d was owed an evaluation at t=%d, still hungry at t=%d",
			c.name, i, c.since[i], c.next[i], t)
	}
}

// TestWrapperDeadlineMeetsTheorem8 is Theorem 8's obligation on the armed
// W': every hungry stretch of at least δ is evaluated at its start + δ and
// every δ after while it lasts, and nothing is evaluated outside one. Fault
// closures forge Hungry on thinking nodes, wipe it from hungry ones, and
// rewrite REQ under nodes that stay hungry, so stretches also begin and end
// where no client or message put them.
func TestWrapperDeadlineMeetsTheorem8(t *testing.T) {
	const (
		n       = 4
		delta   = 7
		horizon = 3000
	)
	for _, p := range []struct {
		name    string
		factory func(id, n int) tme.Node
	}{{"ra", raFactory}, {"lamport", lamportFactory}} {
		c := &stretchChecker{t: t, name: p.name, delta: delta,
			since: make([]int64, n), next: make([]int64, n)}
		for i := range c.since {
			c.since[i] = -1
		}
		s := New(Config{
			N: n, Seed: 5, NewNode: p.factory, Workload: true, MaxRequests: 40,
			NewWrapper: func(id int) wrapper.Level2 {
				return recorder{Timed: wrapper.NewTimed(delta), c: c, id: id}
			},
		})
		s.SetObserver(c.observe)
		var forged, wiped, rewritten int
		for at := int64(40); at < 1500; at += 23 {
			at := at
			s.At(at, func(s *Sim) {
				i := int(at/23) % n
				nd := s.Node(i).(tme.Corruptible)
				switch {
				case s.Node(i).Phase() != tme.Hungry:
					nd.Corrupt(tme.Corruption{Phase: tme.Hungry})
					forged++
				case at%2 == 0:
					nd.Corrupt(tme.Corruption{Phase: tme.Thinking})
					wiped++
				default:
					req := ltime.Timestamp{Clock: uint64(at), PID: i}
					nd.Corrupt(tme.Corruption{REQ: &req})
					rewritten++
				}
			})
		}
		s.Run(horizon)
		for i := 0; i < n; i++ {
			c.owed(i, horizon)
		}
		if forged == 0 || wiped == 0 || rewritten == 0 {
			t.Fatalf("%s: faults forged %d, wiped %d, rewrote %d: want every kind", p.name, forged, wiped, rewritten)
		}
		if c.evals == 0 {
			t.Fatalf("%s: no W' evaluation at all", p.name)
		}
		t.Logf("%s: %d evaluations; %d forged, %d wiped, %d rewritten", p.name, c.evals, forged, wiped, rewritten)
	}
}
