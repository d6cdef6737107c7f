package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/graybox-stabilization/graybox/internal/harness"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/workload"
)

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-id", "1", "-n", "3", "-shards", "2", "-peers", "a:1,b:2,c:3", "-algo", "lamport",
		"-delta", "10ms", "-duration", "1s", "-seed", "9",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ID != 1 || cfg.N != 3 || cfg.Shards != 2 || len(cfg.Peers) != 3 || cfg.Algo != harness.Lamport ||
		cfg.Delta != 10*time.Millisecond || cfg.Duration != time.Second || cfg.Seed != 9 {
		t.Errorf("parsed config = %+v", cfg)
	}
	if _, err := parseFlags([]string{"-algo", "paxos"}); err == nil {
		t.Error("unknown -algo accepted")
	}
	if _, err := parseFlags([]string{"-tick", "2ms"}); err == nil {
		t.Error("-tick accepted: W' is armed per request and has no tick")
	}
	// Traffic is shaped by -workload alone.
	for _, args := range [][]string{{"-think", "4ms"}, {"-eat", "2ms"}} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// With no -workload a node's client draws what RunLive's driver for the
// same seed and id draws: the uniform spec of harness.DefaultThinkMin/Max
// and DefaultEatTime from stream seed+100.
func TestDefaultClientMatchesRunLive(t *testing.T) {
	cfg, err := parseFlags([]string{"-id", "2", "-n", "3", "-seed", "9"})
	if err != nil {
		t.Fatal(err)
	}
	tick := func(d time.Duration) int64 { return int64(d / harness.LiveTick) }
	spec := workload.UniformSpec(tick(harness.DefaultThinkMin), tick(harness.DefaultThinkMax), tick(harness.DefaultEatTime))
	want := workload.NewGen(spec, cfg.Seed+100, cfg.N).Client(cfg.ID)
	got := draws(cfg)
	for i := 0; i < 50; i++ {
		gt, gh := got.NextThink(), got.NextHold()
		wt, wh := want.NextThink(), want.NextHold()
		if gt != wt || gh != wh {
			t.Fatalf("draw %d: gbnode think/hold %d/%d, RunLive %d/%d", i, gt, gh, wt, wh)
		}
	}
}

func TestStartNodeValidation(t *testing.T) {
	if _, err := StartNode(NodeConfig{ID: 3, N: 3, Algo: harness.RA}); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := StartNode(NodeConfig{ID: 0, N: 3, Algo: harness.RA}); err == nil {
		t.Error("missing peers accepted")
	}
}

// A single-node run makes progress, serves /metrics.json, and writes a
// parseable final snapshot.
func TestRunSingleNode(t *testing.T) {
	var out bytes.Buffer
	ready := make(chan NodeAddrs, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-n", "1", "-id", "0", "-duration", "600ms", "-workload", "uniform"},
			&out, io.Discard, ready)
	}()
	addrs := <-ready
	if addrs.HTTP == "" {
		t.Fatal("no debug HTTP address")
	}
	resp, err := http.Get("http://" + addrs.HTTP + "/metrics.json")
	if err != nil {
		t.Fatalf("GET /metrics.json: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics.json: %d", resp.StatusCode)
	}
	live := obs.NewSnapshot()
	if err := json.Unmarshal(body, live); err != nil {
		t.Fatalf("/metrics.json is not a snapshot: %v", err)
	}

	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	final := obs.NewSnapshot()
	if err := json.Unmarshal(out.Bytes(), final); err != nil {
		t.Fatalf("final snapshot not JSON: %v\n%s", err, out.Bytes())
	}
	if final.Counter("runtime_entries_total") == 0 {
		t.Errorf("single node made no CS entries: %v", final.Counters)
	}
}

// Three gbnode processes (in-process here, one OS process each in real
// use) form a cluster over real sockets and all make progress, and once
// stopped leave no goroutine behind (client loops included).
func TestThreeNodeCluster(t *testing.T) {
	const n = 3
	base := runtime.NumGoroutine()
	// Stage 1: bind every node on an ephemeral port with peers unknown —
	// the transports queue outbound traffic until SetPeers.
	nodes := make([]*Node, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		// Two shards: the cluster speaks the sharded wire protocol end to
		// end, each client loop drawing its shard per attempt.
		nd, err := StartNode(NodeConfig{
			ID: i, N: n, Shards: 2, Peers: make([]string, n), Algo: harness.RA,
			Delta: 25 * time.Millisecond, HTTP: "", Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer nd.Stop()
		nodes[i] = nd
		addrs[i] = nd.Addr()
	}
	for _, nd := range nodes {
		nd.SetPeers(addrs)
	}
	time.Sleep(900 * time.Millisecond)
	var wg sync.WaitGroup
	for _, nd := range nodes {
		nd := nd
		wg.Add(1)
		go func() { defer wg.Done(); nd.Stop() }()
	}
	wg.Wait()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Stop", base, runtime.NumGoroutine())
		}
	}
	for i, nd := range nodes {
		var buf bytes.Buffer
		if err := nd.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		s := obs.NewSnapshot()
		if err := json.Unmarshal(buf.Bytes(), s); err != nil {
			t.Fatal(err)
		}
		if s.Counter("runtime_entries_total") == 0 {
			t.Errorf("node %d made no CS entries", i)
		}
		if s.Counter("wire_msgs_sent_total") == 0 {
			t.Errorf("node %d sent no wire messages", i)
		}
	}
}
