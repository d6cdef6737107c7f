package runtime

import (
	"sync"
	"testing"
	"time"

	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/ra"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// dropFirstREQ is an in-process Transport that delivers every message at
// once, except the first request from process 0 to process 1, which it
// loses. It stamps every request sent on that edge.
type dropFirstREQ struct {
	deliver func(dst int, m tme.Message)

	mu    sync.Mutex
	sends []time.Time // guarded by mu
}

func (t *dropFirstREQ) Start(deliver func(dst int, m tme.Message)) { t.deliver = deliver }
func (t *dropFirstREQ) Close() error                               { return nil }

func (t *dropFirstREQ) Send(m tme.Message) {
	if m.Kind == tme.Request && m.From == 0 && m.To == 1 {
		t.mu.Lock()
		t.sends = append(t.sends, time.Now())
		first := len(t.sends) == 1
		t.mu.Unlock()
		if first {
			return
		}
	}
	t.deliver(m.To, m)
}

func (t *dropFirstREQ) requests() []time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Time(nil), t.sends...)
}

// auditW is W' that records every evaluation: when, and the phase its
// process was in. The embedded Timed supplies the timeout the cluster arms.
type auditW struct {
	*wrapper.Timed
	mu    sync.Mutex
	evals []audit // guarded by mu
}

type audit struct {
	at    int64
	phase tme.Phase
}

func (a *auditW) Fire(now int64, v tme.SpecView) []tme.Message {
	a.mu.Lock()
	a.evals = append(a.evals, audit{now, v.Phase()})
	a.mu.Unlock()
	return a.Timed.Fire(now, v)
}

// Theorem 8 asks only that W' be evaluated within δ of a continuously
// hungry state. Process 0's first request to process 1 is lost, so its
// stretch outlives δ: the resend must leave no earlier than δ after the
// request (a ticked W' fired whenever its window happened to open) and no
// later than δ plus the slack a timer and the scheduler may add on a
// loaded machine under -race; process 0 then enters, and no process's W'
// is evaluated while it is not hungry.
func TestWrapperDeadlineMeetsTheorem8(t *testing.T) {
	const (
		n     = 3
		delta = 20 * time.Millisecond
		slack = 15 * time.Millisecond
	)
	tr := &dropFirstREQ{}
	audits := make([]*auditW, n)
	c, err := NewCluster(Config{
		N:       n,
		NewNode: func(id, nn int) tme.Node { return ra.New(id, nn) },
		NewWrapper: func(id int) wrapper.Level2 {
			audits[id] = &auditW{Timed: wrapper.NewTimed(delta.Nanoseconds())}
			return audits[id]
		},
		Level1:    wrapper.PhaseGuard{},
		Transport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	t0 := time.Now()
	c.RequestShard(0, 0)
	if ph, ok := c.AwaitPhaseChangeShard(watchdog(t), 0, 0, tme.Hungry); !ok || ph != tme.Eating {
		t.Fatalf("process 0 left Hungry as (%v, %v), want (Eating, true)", ph, ok)
	}
	c.ReleaseShard(0, 0)
	time.Sleep(2 * delta) // every process thinks: an armed W' stays silent
	c.Stop()              // timer callbacks ended: the audits are final

	sends := tr.requests()
	if len(sends) != 2 {
		t.Fatalf("process 0 sent %d requests to process 1, want the lost one and one resend", len(sends))
	}
	if wait := sends[1].Sub(t0); wait < delta || wait > delta+slack {
		t.Errorf("resend left %v after the request, want within [δ, δ+%v] = [%v, %v]", wait, slack, delta, delta+slack)
	}
	for id, a := range audits {
		for _, e := range a.evals {
			if e.phase != tme.Hungry {
				t.Errorf("process %d: W' evaluated while %v", id, e.phase)
			}
			if e.at < t0.UnixNano()+delta.Nanoseconds() {
				t.Errorf("process %d: W' evaluated %v after the request, before δ", id, time.Duration(e.at-t0.UnixNano()))
			}
		}
	}
	if len(audits[0].evals) == 0 {
		t.Error("process 0's W' was never evaluated")
	}
	for id := 1; id < n; id++ {
		if k := len(audits[id].evals); k != 0 {
			t.Errorf("process %d never hungry, but its W' was evaluated %d times", id, k)
		}
	}
}

// With W' armed per request nothing evaluates a quiescent process, so the
// corruption path runs level-1 itself: the phase reads repaired as soon as
// CorruptShard returns, with no traffic and no timer.
func TestLevel1RepairsQuiescentNode(t *testing.T) {
	o := obs.New(obs.Options{})
	c, _ := inProcess(t, Config{
		N:          2,
		NewNode:    func(id, n int) tme.Node { return ra.New(id, n) },
		NewWrapper: func(int) wrapper.Level2 { return wrapper.NewTimed((25 * time.Millisecond).Nanoseconds()) },
		Level1:     wrapper.PhaseGuard{},
		Obs:        o,
	}, bareHold, bareHold)
	c.Start()
	c.CorruptShard(0, 0, tme.Corruption{Phase: tme.Phase(9)})
	if ph := c.PhaseShard(0, 0); ph != tme.Thinking {
		t.Fatalf("phase after CorruptShard = %v, want thinking", ph)
	}
	if got := o.Registry().Snapshot().Counter("runtime_level1_repairs_total"); got != 1 {
		t.Errorf("runtime_level1_repairs_total = %d, want 1", got)
	}
}
