GO ?= go

.PHONY: all fmt vet build test race bench benchmark bench-all throughput plancache oracle fuzz cancel trace batch shard planner anyk ci

all: ci

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The repo's end-to-end serving benchmark (BENCHMARK.json, benchmark/README.md):
# all four workloads, 25 s each, every response checked against brute force.
# Arguments pass through: make benchmark ARGS="--workload sharded-skew --seconds 3".
benchmark:
	bash benchmark/run.sh $(ARGS)

# Every registered benchmark mode back to back with default artifact paths;
# emits each BENCH_*.json plus a BENCH_index.json manifest recording which
# gates held. Exits nonzero when any gate fails (after running everything).
bench-all: build
	$(GO) run ./cmd/raqo-bench -bench-all

# Concurrent-session throughput sweep; emits BENCH_throughput.json.
throughput: build
	$(GO) run ./cmd/raqo-bench -concurrency -out BENCH_throughput.json

# Plan-cache cold/warm sweep; emits BENCH_plancache.json.
plancache: build
	$(GO) run ./cmd/raqo-bench -plancache -out BENCH_plancache.json

# Differential oracle, full 200-seed corpus (CI runs the -quick subset).
oracle:
	$(GO) test ./internal/oracle

# Short native-fuzz budget per sqlparse target.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=15s ./internal/sqlparse
	$(GO) test -run=NONE -fuzz=FuzzFingerprint -fuzztime=15s ./internal/sqlparse

# Cancellation-under-load latency bench; emits BENCH_cancel.json.
cancel: build
	$(GO) run ./cmd/raqo-bench -cancel -out BENCH_cancel.json

# Tracing on/off overhead comparison; emits BENCH_trace.json.
trace: build
	$(GO) run ./cmd/raqo-bench -trace -out BENCH_trace.json

# Batch vs per-tuple executor comparison with tuple-level parity gating;
# emits BENCH_batch.json and exits nonzero when the two paths diverge.
batch: build
	$(GO) run ./cmd/raqo-bench -batch -out BENCH_batch.json

# Sharded scatter-gather scaling sweep (shard counts 1/2/4/8 on the skewed
# range-partitioned workload); emits BENCH_shard.json and exits nonzero when
# shard=4 throughput is below 1.5x shard=1 or no shard was ever stopped early.
shard: build
	$(GO) run ./cmd/raqo-bench -shard -out BENCH_shard.json

# Two-speed planner comparison (DP vs greedy planning time, plan cost, and
# executed top-k parity); emits BENCH_planner.json and exits nonzero when the
# greedy path plans less than 10x faster, a greedy plan costs more than 1.2x
# the DP's, the answers diverge, or greedy silently fell back to the DP.
planner: build
	$(GO) run ./cmd/raqo-bench -planner -out BENCH_planner.json

# Any-k enumeration vs m-way HRJN operator sweep (width x k crossover with a
# three-way brute-force parity check); emits BENCH_anyk.json and exits nonzero
# when any answers diverge or no sweep point shows any-k at least 1.5x faster.
anyk: build
	$(GO) run ./cmd/raqo-bench -anyk -out BENCH_anyk.json

ci: fmt vet build race
	$(GO) test ./internal/oracle -quick
