package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/obs"
)

// A short loopback run with -check writes a parseable snapshot whose
// gbload gauges report a converged, safe run.
func TestLoopbackRunCheck(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-n", "3", "-duration", "900ms", "-seed", "1", "-scenario", "partition", "-check",
	}, &out, io.Discard)
	if err != nil {
		t.Fatalf("gbload -check failed: %v", err)
	}
	s := obs.NewSnapshot()
	if err := json.Unmarshal(out.Bytes(), s); err != nil {
		t.Fatalf("output is not a snapshot: %v\n%s", err, out.Bytes())
	}
	if s.Gauge("gbload_entries", 0) == 0 {
		t.Error("gbload_entries = 0")
	}
	if s.Gauge("gbload_converged", 0) != 1 {
		t.Error("gbload_converged != 1")
	}
	if s.Gauge("gbload_safety_violations_after_convergence", -1) != 0 {
		t.Error("post-convergence violations reported in a passing -check run")
	}
	if s.Counter("runtime_entries_total") == 0 {
		t.Error("snapshot missing runtime instruments")
	}
	if s.Counter("wire_msgs_sent_total") == 0 {
		t.Error("snapshot missing wire instruments")
	}
}

// The acceptance property: same seed ⇒ byte-identical fault schedule.
func TestScheduleOutDeterministic(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	for _, p := range paths {
		err := run([]string{
			"-n", "3", "-duration", "250ms", "-seed", "42", "-schedule-out", p,
		}, io.Discard, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
	}
	a, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed wrote different schedules:\n%s\nvs\n%s", a, b)
	}
	if len(a) == 0 || !json.Valid(a) {
		t.Fatalf("schedule is not valid JSON: %s", a)
	}
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-algo", "paxos"}, io.Discard, io.Discard); err == nil {
		t.Error("unknown -algo accepted")
	}
	if err := run([]string{"-scenario", "hurricane"}, io.Discard, io.Discard); err == nil {
		t.Error("unknown -scenario accepted")
	}
	// The pre-scenario schedule flags are gone: -scenario names the plan.
	for _, args := range [][]string{{"-bursts", "2"}, {"-max-per-burst", "3"}, {"-partition=false"}} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// Remote mode polls /metrics.json endpoints and reports the entry delta.
func TestRemoteObserve(t *testing.T) {
	o := obs.New(obs.Options{})
	entries := o.Registry().Counter("runtime_entries_total", "test entries")
	entries.Inc()
	addr, shutdown, err := o.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	var out bytes.Buffer
	err = run([]string{"-connect", addr, "-duration", "50ms"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	s := obs.NewSnapshot()
	if err := json.Unmarshal(out.Bytes(), s); err != nil {
		t.Fatalf("remote output not a snapshot: %v", err)
	}
	if s.Gauge("gbload_n", 0) != 1 {
		t.Errorf("gbload_n = %d, want 1", s.Gauge("gbload_n", 0))
	}
	if s.Counter("runtime_entries_total") == 0 {
		t.Error("merged snapshot lost the node's counters")
	}

	if err := run([]string{"-connect", "127.0.0.1:1", "-duration", "10ms"},
		io.Discard, io.Discard); err == nil {
		t.Error("unreachable -connect target did not error")
	}
}

// A sharded loopback run passes -check and publishes per-shard entry
// gauges that sum to the total.
func TestLoopbackShardedRun(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-n", "3", "-shards", "3", "-duration", "900ms", "-seed", "2",
		"-scenario", "partition", "-check",
	}, &out, io.Discard)
	if err != nil {
		t.Fatalf("gbload -shards -check failed: %v", err)
	}
	s := obs.NewSnapshot()
	if err := json.Unmarshal(out.Bytes(), s); err != nil {
		t.Fatalf("output is not a snapshot: %v", err)
	}
	total := s.Gauge("gbload_entries", 0)
	var byShard int64
	for shard := 0; shard < 3; shard++ {
		byShard += s.Gauge(fmt.Sprintf("gbload_shard_%d_entries", shard), 0)
	}
	if total == 0 || byShard != total {
		t.Errorf("per-shard entries sum %d != total %d", byShard, total)
	}
	if s.Gauge("gbload_safety_violations_after_convergence", -1) != 0 {
		t.Error("post-convergence violations in a passing sharded run")
	}
}
