package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/graybox-stabilization/graybox/internal/harness"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/runtime"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wire"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// ownedConfig describes a run on the benchmark's own loopback composition:
// the same parts harness.RunLive assembles (one wire.Transport and one
// single-process runtime.Cluster per node, one shared chaos proxy), put
// together here so that timing links can sit on both sides of the proxy
// and the client can be told of its entry instead of polling for it.
type ownedConfig struct {
	// live carries the cluster shape, timings, recorded client draws and
	// fault schedule, exactly as liveInputs built them for RunLive.
	live harness.LiveConfig
	// noProxy takes the chaos proxy out of the path.
	noProxy bool
	// tr, when non-nil, records every message at each boundary and every
	// client call; nil is the untraced run the traced one is compared to.
	tr *tracer
}

// ownedResult is what an owned run measured.
type ownedResult struct {
	entries   int
	elapsed   time.Duration
	latencies []float64 // request issued to entry, microseconds
	phaseNS   float64   // one PhaseShard call on the running cluster
}

func (r ownedResult) entriesPerS() float64 {
	return ratio(float64(r.entries), r.elapsed.Seconds())
}

func nowNS() int64 { return time.Now().UnixNano() }

// sleepOrStop waits d; false means stop closed first.
func sleepOrStop(stop <-chan struct{}, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}

// runOwned boots the composition, drives one closed-loop client per node
// until the configured duration has passed, and tears everything down.
// Every goroutine it starts is joined before it returns.
func runOwned(cfg ownedConfig) (ownedResult, error) {
	lc := cfg.live
	n := lc.N
	o := obs.New(obs.Options{})
	chaos := wire.NewChaos(wire.ChaosConfig{
		N: n, Seed: lc.Seed + 1, MinDelay: lc.ChaosMinDelay, MaxDelay: lc.ChaosMaxDelay, Obs: o,
	})
	defer chaos.Close()

	transports := make([]*wire.Transport, n)
	addrs := make([]string, n)
	closeAll := func() {
		for _, tr := range transports {
			if tr != nil {
				_ = tr.Close() // boot failed; nothing was sent
			}
		}
	}
	for i := range transports {
		tr, err := wire.NewTransport(wire.Config{N: n, Local: []int{i}, Obs: o})
		if err != nil {
			closeAll()
			return ownedResult{}, fmt.Errorf("owned cluster: %w", err)
		}
		transports[i], addrs[i] = tr, tr.Addr()
	}
	for _, tr := range transports {
		tr.SetPeers(addrs)
	}

	delta := lc.Delta.Nanoseconds()
	clusters := make([]*runtime.Cluster, n)
	for i := range clusters {
		var link wire.Link = transports[i]
		if cfg.tr != nil {
			link = &timingLink{next: link, tr: cfg.tr, at: atWire}
		}
		if !cfg.noProxy {
			link = chaos.Pipe(link)
		}
		if cfg.tr != nil {
			link = &timingLink{next: link, tr: cfg.tr, at: atSend}
		}
		cl, err := runtime.NewCluster(runtime.Config{
			N: n, Seed: lc.Seed + int64(i), Local: []int{i},
			NewNode:     lc.Algo.Factory(),
			NewWrapper:  func(int) wrapper.Level2 { return wrapper.NewTimed(delta) },
			WrapperTick: lc.WrapperTick,
			Level1:      wrapper.PhaseGuard{},
			Obs:         o,
			Transport:   link,
		})
		if err != nil {
			closeAll()
			return ownedResult{}, fmt.Errorf("owned cluster: %w", err)
		}
		clusters[i] = cl
	}

	var (
		mu       sync.Mutex
		res      ownedResult
		applyErr error // a schedule event the applier could not apply
	)
	// entered[i] tells client i of its entry. One slot is enough: a client
	// has one request outstanding and drains the slot before the next.
	entered := make([]chan int64, n)
	for i, cl := range clusters {
		ch := make(chan int64, 1)
		entered[i] = ch
		cl.OnEntry(func(e runtime.Entry) {
			mu.Lock()
			res.entries++
			mu.Unlock()
			select {
			case ch <- e.At.UnixNano():
			default:
			}
		})
	}
	for _, cl := range clusters {
		cl.Start()
	}
	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := lc.WorkloadTrace.Client(i)
			cl := clusters[i]
			for {
				if !sleepOrStop(stop, time.Duration(client.NextThink())*harness.LiveTick) {
					return
				}
				if cl.PhaseShard(0, i) != tme.Thinking {
					continue // cannot happen without state corruption
				}
				t0 := nowNS()
				cl.RequestShard(0, i)
				t1 := nowNS()
				var req tme.SpecState
				if cfg.tr != nil {
					req = cl.SnapshotShard(0, i)
				}
				var at int64
				select {
				case at = <-entered[i]:
				case <-stop:
					return
				}
				mu.Lock()
				res.latencies = append(res.latencies, float64(at-t0)/1e3)
				mu.Unlock()
				ok := sleepOrStop(stop, time.Duration(client.NextHold())*harness.LiveTick)
				r0 := nowNS()
				cl.ReleaseShard(0, i)
				r1 := nowNS()
				cfg.tr.entry(entryRecord{node: i, req: req.REQ, t0: t0, t1: t1, entered: at, r0: r0, r1: r1})
				if !ok {
					return
				}
			}
		}(i)
	}

	if lc.Schedule != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, e := range lc.Schedule.Events {
				due := time.Duration(e.AtMS)*time.Millisecond - time.Since(start)
				if !sleepOrStop(stop, due) {
					return
				}
				switch e.Verb {
				case wire.VerbPartition:
					chaos.Isolate(e.Group...)
				case wire.VerbPartitionOneWay:
					chaos.IsolateOneWay(e.Group...)
				case wire.VerbHeal:
					chaos.Heal()
				default:
					mu.Lock()
					applyErr = fmt.Errorf("owned cluster: schedule verb %q is not one partitionSchedule plans", e.Verb)
					mu.Unlock()
					return
				}
			}
		}()
	}

	sleepOrStop(nil, lc.Duration)
	// One PhaseShard call, timed on the cluster while it is still busy.
	const phaseCalls = 2000
	p0 := time.Now()
	for k := 0; k < phaseCalls; k++ {
		clusters[k%n].PhaseShard(0, k%n)
	}
	phaseNS := float64(time.Since(p0).Nanoseconds()) / phaseCalls
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	for _, cl := range clusters {
		cl.Stop() // closes its links and its transport
	}

	mu.Lock()
	defer mu.Unlock()
	res.elapsed = elapsed
	res.phaseNS = phaseNS
	return res, applyErr
}
