// Command gbnode runs ONE graybox TME node as a real OS process: a
// runtime.Cluster hosting a single process id, speaking the internal/wire
// framed TCP protocol to its peers, with the protocol stacked under the
// level-1 PhaseGuard and (by default) the W' timeout wrapper, armed δ
// after the node turns hungry. A built-in client loop drives the node
// through the think→request→eat→release cycle, so a set of gbnode
// processes forms a live cluster with no external coordinator.
//
// Usage (three nodes on one machine):
//
//	gbnode -id 0 -n 3 -listen 127.0.0.1:7000 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//	gbnode -id 1 -n 3 -listen 127.0.0.1:7001 -peers ...
//	gbnode -id 2 -n 3 -listen 127.0.0.1:7002 -peers ...
//
// Each node serves its observability bundle over HTTP (-http, default an
// ephemeral port): /metrics, /metrics.json, /trace, /debug/pprof. Status
// lines (bound addresses) go to stderr; on shutdown — after -duration, or
// on SIGINT/SIGTERM when -duration is 0 — the final metrics snapshot is
// written to stdout as deterministic JSON.
package main

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/graybox-stabilization/graybox/internal/harness"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "gbnode:", err)
		os.Exit(1)
	}
}

// run is the testable entry point. Status lines go to errOut, the final
// metrics snapshot to out. A non-nil ready channel receives the node's
// bound transport and HTTP addresses once it is serving (used by tests).
func run(args []string, out, errOut io.Writer, ready chan<- NodeAddrs) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}

	node, err := StartNode(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(errOut, "gbnode: id=%d n=%d algo=%v listening on %s\n",
		cfg.ID, cfg.N, cfg.Algo, node.Addr())
	if node.HTTPAddr() != "" {
		fmt.Fprintf(errOut, "gbnode: debug http on http://%s/metrics.json\n", node.HTTPAddr())
	}
	if ready != nil {
		ready <- NodeAddrs{Transport: node.Addr(), HTTP: node.HTTPAddr()}
	}

	if cfg.Duration > 0 {
		time.Sleep(cfg.Duration)
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		fmt.Fprintf(errOut, "gbnode: %v, shutting down\n", s)
	}

	node.Stop()
	return node.WriteSnapshot(out)
}

func parseFlags(args []string) (NodeConfig, error) {
	fs := newFlagSet("gbnode")
	var cfg NodeConfig
	fs.IntVar(&cfg.ID, "id", 0, "this node's process id (0..n-1)")
	fs.IntVar(&cfg.N, "n", 1, "cluster size")
	fs.IntVar(&cfg.Shards, "shards", 1, "independent critical sections (per-shard protocol instances)")
	fs.StringVar(&cfg.Listen, "listen", "127.0.0.1:0", "wire transport listen address")
	peers := fs.String("peers", "", "comma-separated peer addresses, one per id (empty for n=1)")
	algo := fs.String("algo", "ra", "protocol: ra or lamport")
	fs.DurationVar(&cfg.Delta, "delta", 25*time.Millisecond, "W' wrapper timeout (negative disables the wrapper)")
	fs.BoolVar(&cfg.V2, "v2", false, "send with the compact v2 wire codec (peers auto-detect; mixed clusters are fine)")
	fs.StringVar(&cfg.HTTP, "http", "127.0.0.1:0", `debug HTTP listen address ("" disables)`)
	fs.DurationVar(&cfg.Duration, "duration", 0, "run length (0 = until SIGINT/SIGTERM)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed for the client loop's think times")
	workloadName := fs.String("workload", "", "workload preset shaping the client loop (e.g. uniform, poisson, bursty, mixed; empty = the live harness's uniform default)")
	if err := fs.Parse(args); err != nil {
		return NodeConfig{}, err
	}
	if *workloadName != "" {
		spec, err := workload.Preset(*workloadName)
		if err != nil {
			return NodeConfig{}, err
		}
		cfg.Workload = &spec
	}
	if *peers != "" {
		cfg.Peers = strings.Split(*peers, ",")
	}
	switch strings.ToLower(*algo) {
	case "ra", "ricart-agrawala":
		cfg.Algo = harness.RA
	case "lamport":
		cfg.Algo = harness.Lamport
	default:
		return NodeConfig{}, fmt.Errorf("unknown -algo %q (want ra or lamport)", *algo)
	}
	return cfg, nil
}

// newObs builds the node's observability bundle with tracing retained for
// the /trace endpoint.
func newObs() *obs.Obs {
	return obs.New(obs.Options{})
}
