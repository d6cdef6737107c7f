# Developer entry points. Everything is plain `go` underneath; the Makefile
# just names the common invocations.

GO ?= go

.PHONY: all build lint test race test-race cover bench bench-pairs experiments experiments-quick examples fuzz soak parity goldens clean

all: build test test-race

build:
	$(GO) build ./...

# Static analysis: gofmt (any file it lists fails), go vet, and the repo's
# own analyzer (layering, determinism and kind-switch exhaustiveness — see
# DESIGN.md "Static guarantees"). Allocation, lock and goroutine-lifetime
# discipline are held by tests: testing.AllocsPerRun, `make test-race` and
# the goroutine-count checks.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/gblint ./...

test: lint
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race pass over the concurrent packages (the goroutine runtime, the
# wall-clock timer every live wait uses, whose relay goroutine sends on its
# channel or calls its function, the wire layer's sockets and chaos proxy,
# the observability instruments they publish to, the hierarchical monitor, whose mutex is for
# substrates that run clients on their own goroutines (the sharded
# simulator is one goroutine), the gbnode process with its client loops,
# the quickstart example (a cluster, its chaos proxy's scheduler and a
# transport's listener), the harness's parallel sweep, which must equal a sequential sweep
# bit-for-bit, and the live driver: RunLive, the workload.Driver adapter
# it shares with gbnode, which blocks on the runtime's phase-change wait,
# and the cross-substrate fault-row test of that Driver). This is the net
# for every mutex-guarded field (DESIGN.md §6 lists the plant that proves
# each one). The runtime runs ten times over: its wrapper.Process is fed
# under p.mu from every goroutine that delivers to it, its W' timer, the
# client goroutines and CorruptShard. So does the public cluster with no
# Transport, whose local deliveries step the next process inside Send.
test-race:
	$(GO) test -race -count=10 ./internal/runtime/
	$(GO) test -race ./internal/wallclock/... ./internal/wire/... ./internal/obs/... ./internal/hme/... ./cmd/gbnode/ ./examples/quickstart/
	$(GO) test -race -run 'ParMap|RunLive|LiveClient|Driver' ./internal/harness/
	$(GO) test -race -count=10 -run FacadeCluster .

# Race-enabled soak: a 5-node live TCP loopback cluster under the seeded
# chaos schedule; fails unless it converges (a CS entry after the last
# fault and the last sampled ME1 violation). Node 0 sends with the compact v2 wire codec so every
# soak exercises v1/v2 interop on the batched send path. The second run
# replays the gray-burst scenario under a bursty workload — the E16
# gray-failure soak.
soak:
	$(GO) run -race ./cmd/gbload -n 5 -duration 10s -seed 1 -v2 0 -check
	$(GO) run -race ./cmd/gbload -n 5 -duration 10s -seed 1 -workload bursty -scenario gray-burst -check
	$(GO) run -race ./cmd/gbload -n 8 -shards 4 -duration 10s -seed 1 -check

# E18 sim-to-real parity gate: seeded workloads (think-dominated and
# contended) on the tick simulator AND a TCP-loopback live cluster, diffed
# against each other and the analytical twin's prediction. Fails on semantic divergence (entry/request counts
# beyond ±20%, any safety violation, non-convergence).
parity:
	$(GO) run ./cmd/experiments -only E18 -check

cover:
	$(GO) test -cover ./...

# Re-pin the harness goldens (e2_metrics.json, e4_metrics.json,
# fig1_table.txt) from the current code. Review the diff: a golden moves
# only when behaviour or a draw changed on purpose.
goldens:
	$(GO) test ./internal/harness -run Golden -count=1 -update

# Every go test benchmark in the module, with allocation counts. The
# end-to-end benchmark of record is `go run ./benchmark` (BENCHMARK.json).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Alternating pairs of the end-to-end benchmark: ./benchmark built at BASE
# (checked out into a temporary git worktree) and from the working tree,
# run in turn PAIRS times on WORKLOAD at SEED. Odd pairs run BASE first and
# even pairs the working tree first, so an order effect (a warm cache, the
# box settling) falls on both sides alike. Each side appends to its own
# result set under bench_out/ (BASE's first), and --agree compares the two;
# the worktree is removed however the run ends. A full pair of a sim
# workload takes about half a minute.
BASE ?= HEAD
WORKLOAD ?= sim-stabilize
SEED ?= 1
PAIRS ?= 5

bench-pairs:
	@set -e; tmp="$$(mktemp -d)"; \
	trap 'git worktree remove --force "$$tmp/base" >/dev/null 2>&1 || true; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach "$$tmp/base" $(BASE) >/dev/null 2>&1; \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/bench-base" ./benchmark); \
	$(GO) build -o "$$tmp/bench-work" ./benchmark; \
	mkdir -p bench_out; \
	a=bench_out/pairs-$(WORKLOAD)-$(SEED)-base.jsonl; b=bench_out/pairs-$(WORKLOAD)-$(SEED)-work.jsonl; \
	rm -f "$$a" "$$b"; \
	for i in $$(seq $(PAIRS)); do \
		if [ $$((i % 2)) -eq 1 ]; then \
			echo "pair $$i of $(PAIRS): $(BASE), then the working tree" >&2; \
			"$$tmp/bench-base" --workload $(WORKLOAD) --seed $(SEED) --out "$$a" >/dev/null; \
			"$$tmp/bench-work" --workload $(WORKLOAD) --seed $(SEED) --out "$$b" >/dev/null; \
		else \
			echo "pair $$i of $(PAIRS): the working tree, then $(BASE)" >&2; \
			"$$tmp/bench-work" --workload $(WORKLOAD) --seed $(SEED) --out "$$b" >/dev/null; \
			"$$tmp/bench-base" --workload $(WORKLOAD) --seed $(SEED) --out "$$a" >/dev/null; \
		fi; \
	done; \
	echo "a = $(BASE) ($$a), b = the working tree ($$b)"; \
	"$$tmp/bench-work" --agree "$$a" "$$b"

# Regenerate every experiment table of EXPERIMENTS.md (full scale ≈ 30 min).
experiments:
	$(GO) run ./cmd/experiments -scale full -markdown

experiments-quick:
	$(GO) run ./cmd/experiments -scale quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/deadlock
	$(GO) run ./examples/reuse
	$(GO) run ./examples/tuning
	$(GO) run ./examples/synthesis
	$(GO) run ./examples/tokenring

# Short fuzzing pass over every fuzz target.
fuzz:
	$(GO) test -run=Fuzz -fuzz=FuzzFIFOOps -fuzztime=15s ./internal/channel/
	$(GO) test -run=Fuzz -fuzz=FuzzNetOps -fuzztime=15s ./internal/channel/
	$(GO) test -run=Fuzz -fuzz=FuzzAcceptForward -fuzztime=15s ./internal/ring/
	$(GO) test -run=Fuzz -fuzz=FuzzParseSystem -fuzztime=15s ./cmd/gbcheck/
	$(GO) test -run=Fuzz -fuzz=FuzzEventHeap -fuzztime=15s ./internal/engine/
	$(GO) test -run=Fuzz -fuzz=FuzzEventQueue -fuzztime=15s ./internal/engine/
	$(GO) test -run=Fuzz -fuzz=FuzzDecodeFrame -fuzztime=15s ./internal/wire/
	$(GO) test -run=Fuzz -fuzz=FuzzLoadSchedule -fuzztime=15s ./internal/workload/
	$(GO) test -run=Fuzz -fuzz=FuzzMonitorsMatchOracle -fuzztime=15s ./internal/lspec/
	$(GO) test -run=Fuzz -fuzz=FuzzLocalREQs -fuzztime=15s ./internal/ra/
	$(GO) test -run=Fuzz -fuzz=FuzzLocalREQs -fuzztime=15s ./internal/lamport/

clean:
	$(GO) clean ./...
