package runtime

import (
	"math/rand"
	"sync"
	"time"

	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wallclock"
)

// Transport is the seam between the node event loops and the medium that
// carries their messages. The in-process implementation (chanTransport,
// the default) forwards over goroutines and mailboxes with seeded random
// delay/loss/duplication; internal/wire provides a TCP implementation with
// the same contract, so the event loop is transport-agnostic.
//
// The contract: Send never blocks indefinitely and preserves FIFO order
// per directed (From,To) edge; deliver is invoked from transport-owned
// goroutines and must be goroutine-safe; after Close returns no further
// deliver calls are made. Send after Close is a silent no-op.
type Transport interface {
	// Start installs the delivery callback and launches the transport's
	// goroutines. Called exactly once, before any Send.
	Start(deliver func(dst int, m tme.Message))
	// Send hands one message to the transport. The caller has already
	// validated From/To against the cluster size.
	Send(m tme.Message)
	// Close terminates the transport's goroutines and waits for them.
	Close() error
}

// edge is one directed in-process link with FIFO-preserving delay.
type edge struct {
	src, dst int
	queue    *mailbox[tme.Message]
}

// chanTransport is the default in-process transport: one forwarder
// goroutine per directed edge, imposing (seeded) random delay while
// preserving FIFO order, with probabilistic loss and duplication.
type chanTransport struct {
	n        int
	min, max time.Duration
	loss     float64
	dupRate  float64
	ins      *rtInstruments

	mu  sync.Mutex
	rng *rand.Rand // guarded by mu

	edges   []*edge
	deliver func(dst int, m tme.Message)

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// newChanTransport builds the in-process transport from the cluster's
// delay/fault knobs. ins points at the cluster's instrument bundle (fields
// nil without observability; publishing is then a no-op).
func newChanTransport(cfg Config, ins *rtInstruments) *chanTransport {
	t := &chanTransport{
		n:       cfg.N,
		min:     cfg.MinDelay,
		max:     cfg.MaxDelay,
		loss:    cfg.LossRate,
		dupRate: cfg.DupRate,
		ins:     ins,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		stop:    make(chan struct{}),
	}
	for s := 0; s < cfg.N; s++ {
		for d := 0; d < cfg.N; d++ {
			if s != d {
				t.edges = append(t.edges, &edge{src: s, dst: d, queue: newMailbox[tme.Message]()})
			}
		}
	}
	return t
}

// Start launches one forwarder goroutine per directed edge.
func (t *chanTransport) Start(deliver func(dst int, m tme.Message)) {
	t.deliver = deliver
	for _, e := range t.edges {
		e := e
		t.wg.Add(1)
		//gblint:ignore determinism one forwarder goroutine per edge is the package's execution model
		go func() {
			defer t.wg.Done()
			t.forward(e)
		}()
	}
}

// Send enqueues m on its edge. From/To were validated by the caller.
func (t *chanTransport) Send(m tme.Message) {
	t.edges[t.edgeIndex(m.From, m.To)].queue.put(m)
}

// Close terminates every forwarder and waits for them to exit.
func (t *chanTransport) Close() error {
	t.once.Do(func() { close(t.stop) })
	t.wg.Wait()
	return nil
}

// forward drains one edge serially — delay then deliver — so FIFO order is
// preserved per channel while delays remain random. One timer serves every
// message's delay.
func (t *chanTransport) forward(e *edge) {
	wait := wallclock.NewTimer()
	defer wait.Close()
	for {
		select {
		case <-t.stop:
			return
		case <-e.queue.ready():
			for {
				m, ok := e.queue.tryGet()
				if !ok {
					break
				}
				d, lost, dup := t.draw()
				t.ins.delayUS.Observe(int64(d / time.Microsecond))
				if !wait.Sleep(t.stop, d) {
					return
				}
				if lost {
					t.ins.lost.Inc()
					if t.ins.trace != nil {
						t.ins.trace.Emit(obs.Event{Time: wallclock.Now(), Kind: obs.EvDrop, A: e.src, B: e.dst})
					}
					continue
				}
				t.deliver(e.dst, m)
				if dup {
					t.ins.dup.Inc()
					t.deliver(e.dst, m)
				}
			}
		}
	}
}

// draw samples delay and fault outcomes under the transport lock
// (rand.Rand is not goroutine-safe).
func (t *chanTransport) draw() (delay time.Duration, lost, dup bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	span := int64(t.max - t.min)
	delay = t.min
	if span > 0 {
		delay += time.Duration(t.rng.Int63n(span + 1))
	}
	lost = t.rng.Float64() < t.loss
	dup = t.rng.Float64() < t.dupRate
	return delay, lost, dup
}

// edgeIndex maps (src,dst) to the edges slice layout built in
// newChanTransport.
func (t *chanTransport) edgeIndex(src, dst int) int {
	idx := src * (t.n - 1)
	if dst > src {
		return idx + dst - 1
	}
	return idx + dst
}
