package main

import (
	"flag"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/graybox-stabilization/graybox/internal/harness"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/runtime"
	"github.com/graybox-stabilization/graybox/internal/wire"
	"github.com/graybox-stabilization/graybox/internal/workload"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// NodeConfig collects everything a single TME node process needs.
type NodeConfig struct {
	ID, N int
	// Shards is the number of independent critical sections the cluster
	// runs (default 1); the client loop draws each attempt's shard from
	// its workload skew stream.
	Shards   int
	Listen   string
	Peers    []string // one address per id; Peers[ID] is replaced by the bound address
	Algo     harness.Algo
	Delta    time.Duration // negative = no W' wrapper
	V2       bool          // send with the compact v2 wire codec (receivers auto-detect)
	HTTP     string        // "" disables the debug HTTP server
	Duration time.Duration
	Seed     int64
	// Workload, when non-nil, shapes the client loop's traffic (ticks read
	// as harness.LiveTick each, same as the gbload drivers); nil runs the
	// live harness's default spec.
	Workload *workload.Spec
}

// NodeAddrs reports where a started node is reachable.
type NodeAddrs struct {
	Transport string
	HTTP      string
}

// Node is one running TME process: transport, cluster, client loop, and
// debug HTTP server.
type Node struct {
	cfg       NodeConfig
	obs       *obs.Obs
	transport *wire.Transport
	cluster   *runtime.Cluster
	httpAddr  string
	httpStop  func() error
	stop      chan struct{}
	wg        sync.WaitGroup
	once      sync.Once
}

// StartNode boots the node: TCP transport, runtime cluster hosting the
// single local process id, wrapper stack, client loop, and HTTP endpoint.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID < 0 || cfg.ID >= cfg.N {
		return nil, fmt.Errorf("-id %d out of range for -n %d", cfg.ID, cfg.N)
	}
	if cfg.N > 1 && len(cfg.Peers) != cfg.N {
		return nil, fmt.Errorf("-peers lists %d addresses, want %d (one per id)", len(cfg.Peers), cfg.N)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	o := newObs()
	nd := &Node{cfg: cfg, obs: o, stop: make(chan struct{})}

	codec := wire.Version
	if cfg.V2 {
		codec = wire.Version2
	}
	tr, err := wire.NewTransport(wire.Config{
		N: cfg.N, Local: []int{cfg.ID}, Listen: cfg.Listen, Codec: codec, Obs: o,
	})
	if err != nil {
		return nil, err
	}
	nd.transport = tr
	peers := make([]string, cfg.N)
	copy(peers, cfg.Peers)
	peers[cfg.ID] = tr.Addr() // self entry reflects the actual bound port
	tr.SetPeers(peers)

	var newWrapper func(int) wrapper.Level2
	if cfg.Delta >= 0 {
		delta := cfg.Delta.Nanoseconds()
		newWrapper = func(int) wrapper.Level2 { return wrapper.NewTimed(delta) }
	}
	cl, err := runtime.NewCluster(runtime.Config{
		N: cfg.N, Shards: cfg.Shards, Local: []int{cfg.ID},
		NewNode:    cfg.Algo.Factory(),
		NewWrapper: newWrapper,
		Level1:     wrapper.PhaseGuard{},
		Obs:        o,
		Transport:  tr,
	})
	if err != nil {
		_ = tr.Close()
		return nil, err
	}
	nd.cluster = cl

	if cfg.HTTP != "" {
		addr, shutdown, err := o.Serve(cfg.HTTP)
		if err != nil {
			_ = tr.Close()
			return nil, err
		}
		nd.httpAddr, nd.httpStop = addr, shutdown
	}

	cl.Start()
	nd.wg.Add(1)
	go nd.clientLoop()
	return nd, nil
}

// Addr is the transport's bound listen address.
func (nd *Node) Addr() string { return nd.transport.Addr() }

// SetPeers repoints the transport at the peers' addresses (own entry is
// pinned to the bound address). Useful when peers bind ephemeral ports.
func (nd *Node) SetPeers(addrs []string) {
	peers := make([]string, nd.cfg.N)
	copy(peers, addrs)
	peers[nd.cfg.ID] = nd.transport.Addr()
	nd.transport.SetPeers(peers)
}

// HTTPAddr is the debug server's bound address ("" when disabled).
func (nd *Node) HTTPAddr() string { return nd.httpAddr }

// Stop tears the node down: client loop, cluster (which closes the
// transport), and HTTP server. Idempotent.
func (nd *Node) Stop() {
	nd.once.Do(func() {
		close(nd.stop)
		nd.wg.Wait()
		nd.cluster.Stop()
		if nd.httpStop != nil {
			_ = nd.httpStop()
		}
	})
}

// WriteSnapshot writes the node's full metrics snapshot as JSON.
func (nd *Node) WriteSnapshot(w io.Writer) error {
	return nd.obs.Registry().WriteJSON(w)
}

// clientLoop is the built-in workload: harness.RunLiveClient, the same
// loop the gbload drivers run.
func (nd *Node) clientLoop() {
	defer nd.wg.Done()
	harness.RunLiveClient(nd.stop, nd.cluster, nd.cfg.ID, draws(nd.cfg), nil)
}

// draws is the node's client draw stream (one tick = harness.LiveTick):
// the live harness's spec from the same seed+100 stream family the gbload
// drivers use, so a gbnode fleet and a gbload loopback run with the same
// seed see the same per-id traffic shape.
func draws(cfg NodeConfig) workload.Client {
	spec := harness.LiveConfig{Workload: cfg.Workload}.Spec()
	return workload.NewGen(spec, cfg.Seed+100, cfg.N).Client(cfg.ID)
}

// newFlagSet returns a flag set that reports errors instead of exiting,
// so run() stays testable.
func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ContinueOnError)
}
