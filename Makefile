# CI entry points. `make ci` is what the pipeline runs. The race target
# covers the packages with concurrency: parallel (counting workers), core
# and apriori (the miners those workers count for), plan (every miner run
# through the one entry point, with count distribution at three workers),
# obsv (metrics scraping), fpmax, dataset (scanners shared by concurrent
# scans), and counting's counter-agreement and trie-walk tests; the
# fault-injection matrix re-runs race-clean because it interleaves kills
# and cancellations with the parallel counting barriers.

GO ?= go
FUZZTIME ?= 30s

.PHONY: ci vet build test race faults conformance fuzz cover load cluster stream stream-cluster serve bench bench-smoke bench-check bench-parallel bench-vertical bench-engines bench-cluster bench-stream bench-stream-cluster profile

ci: vet build test race faults conformance fuzz cover load cluster stream stream-cluster bench-smoke bench-check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# The counting package is filtered to its counter-agreement tests (the
# engine-invariance property, the scan counter's shards, the sharded
# engines, the tid-list counter, the trie's two walks): its steady-state
# allocation tests assert tight per-candidate bounds that race-detector
# instrumentation pushes over the line.
race:
	$(GO) test -race ./internal/parallel/... ./internal/core/... ./internal/apriori/... ./internal/plan/... ./internal/obsv/... ./internal/fpmax/... ./internal/dataset/...
	$(GO) test -race -run 'TestEngineChoiceResultInvariant|TestScanCounter|TestSharded|TestTidListCounterMatchesSupport|TestTrieWalksMatchSupport' ./internal/counting/

# Kill/cancel every miner at every pass boundary and mid-scan point and
# assert that resuming from the checkpoint matches an uninterrupted run.
faults:
	$(GO) test -race ./internal/faultinject/... ./internal/checkpoint/...

# Every plan of the miner table (internal/plan) against the committed golden
# corpus (byte-identical supports).
# Regenerate the goldens after an intentional change with:
#   go test ./internal/mfi -run TestConformance -update
conformance:
	$(GO) test -race -run TestConformance ./internal/mfi

# Run each native fuzz target for $(FUZZTIME) (one -fuzz per invocation:
# `go test` accepts a single fuzz target at a time).
fuzz:
	$(GO) test ./internal/dataset -run '^$$' -fuzz FuzzBasketParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dataset -run '^$$' -fuzz FuzzReadBinary -fuzztime $(FUZZTIME)
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/plan -run '^$$' -fuzz FuzzEnginesAgree -fuzztime $(FUZZTIME)
	$(GO) test ./internal/parallel -run '^$$' -fuzz FuzzCountersAgree -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzJobRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzClusterMessage -fuzztime $(FUZZTIME)
	$(GO) test ./internal/incremental -run '^$$' -fuzz FuzzMaintainerState -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzStreamBatchRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzStreamClusterMessage -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzWireCodec -fuzztime $(FUZZTIME)

# Per-package statement coverage.
cover:
	$(GO) test -cover ./...

# Short deterministic load-generator run against an in-process daemon,
# race-clean, with chaos restarts and sequential-reference verification —
# the quick CI cut of the soak harness. `cmd/pincerload -local -duration 10m
# -chaos-interval 30s` is the long-soak version of the same thing.
load:
	$(GO) test -race ./internal/loadgen/... ./internal/server/...
	$(GO) run -race ./cmd/pincerload -local -duration 2s -concurrency 8 \
		-datasets 2 -minsup 0.3,0.5 -miners pincer,apriori,parallel,fpmax,auto,pincer/auto \
		-chaos-interval 800ms -chaos-restarts 1 -verify -seed 1 -out /tmp/pincerload-ci.json

# The distributed-mining matrix: coordinator/worker protocol, node-loss
# fault injection (kill 1-of-2 and 1-of-4 at every pass boundary and
# mid-scan), quorum degradation, and the worker-kill soak — all race-clean,
# since the coordinator's fan-out and the chaos kills interleave.
cluster:
	$(GO) test -race ./internal/cluster/...
	$(GO) run -race ./cmd/pincerload -local -cluster-workers 2 -chaos-kill-worker \
		-chaos-interval 500ms -duration 2s -concurrency 4 -datasets 2 \
		-minsup 0.3 -miners pincer -verify -seed 1 -out /tmp/pincerload-cluster-ci.json

# The incremental-maintenance matrix, race-clean: the maintainer's
# after-every-delta equivalence property (maintained MFS == from-scratch
# mine across randomized append/evict schedules), its fault-injection
# kill/restart tests, and the stream soak — streams fed through pincerd
# while chaos kill-restarts the daemon, verified against a sequential
# reference. The equivalence property alone is minutes of wall clock under
# the race detector, hence the raised timeout. The package's
# TestStreamCluster* tests are skipped here: stream-cluster runs exactly
# those under -race, and running them twice put this target past its
# timeout.
stream:
	$(GO) test -race -timeout 30m -skip TestStreamCluster ./internal/incremental/...
	$(GO) run -race ./cmd/pincerload -local -duration 2500ms -concurrency 2 \
		-datasets 1 -minsup 0.4 -miners apriori -streams 3 \
		-chaos-interval 800ms -chaos-restarts 2 -verify -seed 1 \
		-out /tmp/pincerload-stream-ci.json
	$(GO) run -race ./cmd/pincerload -local -cluster-workers 2 -streams 3 \
		-chaos-kill-worker -chaos-interval 500ms -duration 2500ms -concurrency 2 \
		-datasets 1 -minsup 0.4 -miners apriori -verify -seed 1 \
		-out /tmp/pincerload-stream-cluster-ci.json

# The distributed-streams matrix, race-clean: the cross-layer equivalence
# suite (clustered maintainer == single-node maintainer == from-scratch
# mine after every delta, over the 12-workload corpus at 1/2/4 workers and
# both counters), the chaos matrix (worker kills at batch barriers and
# mid-delta-scan, coordinator kill between journal write and state
# snapshot), and the combined worker-kill stream soak. TestStreamCluster*
# is the naming contract: every test in the suite carries the prefix so
# one -run expression pins all three layers.
stream-cluster:
	$(GO) test -race -timeout 30m -run TestStreamCluster \
		./internal/cluster/ ./internal/incremental/ ./internal/server/
	$(GO) test -race -run TestSoakStreamCluster ./internal/loadgen/

# Run the mining service daemon locally.
serve:
	$(GO) run ./cmd/pincerd -addr localhost:8080 -spool /tmp/pincerd-spool

bench:
	$(GO) test -bench=. -benchmem .

# One iteration of every benchmark: catches bit-rotted benchmark code in CI
# without paying for real measurements.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x .

# The six sweep suites of cmd/benchrun. Each suite fixes its own workload
# (databases, supports, worker counts, batch size) and repeats; every report
# is one JSON object in the one schema (internal/bench Report) with the
# machine context, a per-cell agree gate and the suite's own gates, and
# benchrun exits non-zero naming any gate that fails.
SWEEPS = parallel vertical cluster engines stream stream-cluster

# Run every sweep suite at its committed size into a scratch directory and
# fail on any gate. The committed BENCH files are left as they are.
bench-check:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/benchrun" ./cmd/benchrun && \
	for s in $(SWEEPS); do \
		"$$dir/benchrun" -suite $$s -q -json "$$dir/$$s.json" || exit 1; \
	done

# Regenerate BENCH_parallel.json: sequential Pincer-Search against count
# distribution at 1, 2 and 4 workers (T20.I10.D10K at 6%). The ratio is
# named speedup only on a machine with more than one CPU.
bench-parallel:
	$(GO) run ./cmd/benchrun -suite parallel -json BENCH_parallel.json

# Regenerate BENCH_vertical.json: scan against tid-list counting of the same
# Pincer-Search run at each support of T20.I10.D10K.
bench-vertical:
	$(GO) run ./cmd/benchrun -suite vertical -json BENCH_vertical.json

# Regenerate BENCH_cluster.json: sequential Pincer-Search against the
# coordinator/worker cluster over 1, 2 and 4 in-process loopback workers
# (T20.I10.D2K at 6%). The loopback workers share this machine's CPUs, so
# the ratio prices the wire protocol against the cores the workers add;
# the gates certify identical answers and that no run degraded.
bench-cluster:
	$(GO) run ./cmd/benchrun -suite cluster -json BENCH_cluster.json

# Regenerate BENCH_engines.json: every fixed engine against the adaptive
# engine=auto policy across the rising-density ladder (the same corpus the
# engine-invariance property test pins). Fails if auto is ever the worst
# plan on a cell or loses to the best single fixed choice summed over the
# sweep — the policy's calibration contract.
bench-engines:
	$(GO) run ./cmd/benchrun -suite engines -json BENCH_engines.json

# Regenerate BENCH_stream.json: stream T20.I10.D10K into the incremental
# maintainer in 500-transaction batches at 20% support, pricing every delta
# against a from-scratch mine of the same prefix. Fails if no delta takes
# the border check's fast path.
bench-stream:
	$(GO) run ./cmd/benchrun -suite stream -json BENCH_stream.json

# Regenerate BENCH_stream_cluster.json: replay the stream suite's batches
# into a cluster-backed maintainer over 1, 2 and 4 loopback workers against
# the single-node maintainer, gating every batch on identical MFS and
# supports and failing if any run degraded below quorum.
bench-stream-cluster:
	$(GO) run ./cmd/benchrun -suite stream-cluster -json BENCH_stream_cluster.json

# CPU-profile a representative mine (T10.I4.D10K) and print the ten
# hottest functions.
profile:
	$(GO) run ./cmd/questgen -name T10.I4.D10K -seed 1 -o /tmp/pincer-t10i4.basket
	$(GO) run ./cmd/pincer -input /tmp/pincer-t10i4.basket -support 0.03 \
		-cpuprofile /tmp/pincer-cpu.prof > /dev/null
	$(GO) tool pprof -top -nodecount=10 /tmp/pincer-cpu.prof
