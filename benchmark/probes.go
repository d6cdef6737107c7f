package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/graybox-stabilization/graybox/internal/engine"
	"github.com/graybox-stabilization/graybox/internal/harness"
	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wire"
	"github.com/graybox-stabilization/graybox/internal/workload"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// Direct-call timers: one layer's public functions called in a loop with
// nothing else running, so the figure is that layer's own cost. They do
// not depend on the workload and are the same in every traced run.

// timeLoop calls f iters times and returns ns and heap allocations per call.
func timeLoop(iters int, f func()) (ns, allocs float64) {
	f() // first call pays for lazy set-up
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(iters),
		float64(after.Mallocs-before.Mallocs) / float64(iters)
}

// protocolCycle times one full critical-section cycle of an n=5 system of
// newNode nodes: RequestCS at one node, every message delivered in memory
// in FIFO order with Step after each, ReleaseCS once the requester eats,
// and the release's messages delivered too. Requesters take turns.
func protocolCycle(newNode func(id, n int) tme.Node) (ns, allocs float64, err error) {
	const n = 5
	nodes := make([]tme.Node, n)
	for i := range nodes {
		nodes[i] = newNode(i, n)
	}
	var queue []tme.Message
	drain := func() {
		for len(queue) > 0 {
			m := queue[0]
			queue = queue[1:]
			queue = append(queue, nodes[m.To].Deliver(m)...)
			_, more := nodes[m.To].Step()
			queue = append(queue, more...)
		}
	}
	next, stuck := 0, false
	ns, allocs = timeLoop(20000, func() {
		j := next % n
		next++
		queue = append(queue[:0], nodes[j].RequestCS()...)
		_, more := nodes[j].Step()
		queue = append(queue, more...)
		drain()
		if nodes[j].Phase() != tme.Eating {
			stuck = true
			return
		}
		queue = append(queue, nodes[j].ReleaseCS()...)
		drain()
	})
	if stuck {
		return 0, 0, fmt.Errorf("protocol cycle: a requester did not enter with every message delivered")
	}
	return ns, allocs, nil
}

// hungryView is a spec view of a hungry process none of whose peers is
// known to have a later request: the state in which W's guard is open to
// every peer.
type hungryView struct{ n int }

func (v hungryView) ID() int              { return 0 }
func (v hungryView) N() int               { return v.n }
func (v hungryView) Phase() tme.Phase     { return tme.Hungry }
func (v hungryView) REQ() ltime.Timestamp { return ltime.Timestamp{Clock: 7, PID: 0} }
func (v hungryView) LocalREQ(int) (ltime.Timestamp, bool) {
	return ltime.Timestamp{Clock: 3, PID: 1}, true
}

// wrapperFire times one Timed.Fire whose timer has expired, on a hungry view.
func wrapperFire() (float64, error) {
	w := wrapper.NewTimed(0)
	v := hungryView{n: 5}
	var now int64
	resent := true
	ns, _ := timeLoop(200000, func() {
		now++
		resent = resent && len(w.Fire(now, v)) == v.n-1
	})
	if !resent {
		return 0, fmt.Errorf("wrapper fire: W' did not resend to every peer of a hungry view")
	}
	return ns, nil
}

// codecStream is the message stream the codec timers encode: requests and
// replies of a five-node cluster under rising clocks, as a live run sends.
func codecStream(count int) []tme.Message {
	msgs := make([]tme.Message, count)
	for i := range msgs {
		kind := tme.Request
		if i%2 == 1 {
			kind = tme.Reply
		}
		from := i % 5
		msgs[i] = tme.Message{
			Kind: kind, From: from, To: (from + 1 + i%4) % 5,
			TS: ltime.Timestamp{Clock: uint64(1000 + i/3), PID: from},
		}
	}
	return msgs
}

// codecCost encodes and decodes the stream with one codec version and
// returns ns and bytes per message.
func codecCost(version int) (ns, bytesPerMsg float64, err error) {
	msgs := codecStream(4096)
	var buf []byte
	var fail error
	ns, _ = timeLoop(50, func() {
		buf = buf[:0]
		var read func() (tme.Message, error)
		if version == wire.Version2 {
			enc := wire.NewV2Encoder()
			for _, m := range msgs {
				if buf, fail = enc.AppendFrame(buf, m); fail != nil {
					return
				}
			}
			read = wire.NewV2Reader(bytes.NewReader(buf)).ReadMessage
		} else {
			for _, m := range msgs {
				if buf, fail = wire.AppendFrame(buf, m); fail != nil {
					return
				}
			}
			read = wire.NewReader(bytes.NewReader(buf)).ReadMessage
		}
		for _, want := range msgs {
			got, err := read()
			if err != nil || got != want {
				fail = fmt.Errorf("codec v%d: read %v (%v), want %v", version, got, err, want)
				return
			}
		}
	})
	if fail != nil {
		return 0, 0, fail
	}
	return ns / float64(len(msgs)), float64(len(buf)) / float64(len(msgs)), nil
}

// edgeThroughput saturates one TCP edge between two transports on
// loopback and returns messages delivered per second: the ceiling any
// cluster edge has.
func edgeThroughput() (float64, error) {
	const count = 200000
	var ts [2]*wire.Transport
	addrs := make([]string, 2)
	for i := range ts {
		tr, err := wire.NewTransport(wire.Config{N: 2, Local: []int{i}})
		if err != nil {
			if i == 1 {
				_ = ts[0].Close() // nothing sent yet
			}
			return 0, fmt.Errorf("edge throughput: %w", err)
		}
		ts[i], addrs[i] = tr, tr.Addr()
	}
	var got atomic.Int64
	done := make(chan struct{})
	for _, tr := range ts {
		tr.SetPeers(addrs)
		tr.Start(func(int, tme.Message) {
			if got.Add(1) == count {
				close(done)
			}
		})
	}
	t0 := time.Now()
	for i := 0; i < count; i++ {
		ts[0].Send(tme.Message{Kind: tme.Request, From: 0, To: 1, TS: ltime.Timestamp{Clock: uint64(i), PID: 0}})
	}
	var err error
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		err = fmt.Errorf("edge throughput: %d of %d messages delivered in 30s", got.Load(), count)
	}
	elapsed := time.Since(t0)
	for _, tr := range ts {
		_ = tr.Close() // every message was already counted or timed out
	}
	return count / elapsed.Seconds(), err
}

// engineDispatch times one event through the engine core: pop, dispatch to
// a handler that schedules its successor, push.
func engineDispatch() float64 {
	const events = 2000000
	core := engine.New(1)
	core.SetHandler(func(e *engine.Event) { core.Schedule(1+int64(e.A%7), 1, e.A, 0) })
	for i := int32(0); i < 64; i++ {
		core.Schedule(int64(i), 1, i, 0)
	}
	t0 := time.Now()
	n := core.Run(events / 16) // 64 events in flight, each rescheduled about every 4 ticks
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// workloadDraw times one think/hold/resource draw of the default spec.
func workloadDraw() float64 {
	c := workload.NewGen(workload.DefaultSpec(), 1, 1).Client(0)
	ns, _ := timeLoop(500000, func() {
		c.NextThink()
		c.NextHold()
		c.NextResource(1)
	})
	return ns
}

// obsSnapshot times one Registry.Snapshot of a bundle carrying a monitored
// simulator run's instruments, in microseconds.
func obsSnapshot() float64 {
	o := obs.New(obs.Options{})
	harness.RunObserved(harness.RunConfig{N: 5, Seed: 1, Delta: 5, Monitor: true, Horizon: 2000}, o)
	ns, _ := timeLoop(2000, func() { o.Registry().Snapshot() })
	return ns / 1e3
}
