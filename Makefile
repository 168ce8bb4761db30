GO ?= go

# CI_STEPS is the one list of checks: .github/workflows/ci.yml runs each as
# its own step (`make <step>`), and `make ci` runs them all, in this order.
CI_STEPS := fmt vet build examples race allocs race-repeat bench-smoke \
	experiments oracle-quick fuzz debug-smoke smoke-sharded-skew smoke-deep-dig

.PHONY: all test bench benchmark oracle ci $(CI_STEPS)

all: ci

ci: $(CI_STEPS)

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# `go build` only compiles the example programs; run each one to the end so
# an example whose engine calls broke fails here.
examples:
	for d in examples/*/; do $(GO) run ./$$d >/dev/null || exit 1; done

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The allocation pins, outside -race: under -race they are loosened
# (sync.Pool drops items), so the race run alone never holds them. See the
# workflow's comment for what each package pins.
allocs:
	$(GO) test -count=1 -run Alloc ./internal/exec ./internal/trace ./internal/core ./internal/engine

# The shard gather, the shared pools and the lazily built images, ten times
# over under the race detector.
race-repeat:
	$(GO) test -race -count=10 -run 'Shard|Pool|Image' ./internal/exec ./internal/engine ./internal/relation

# One iteration of each ranked-execution microbenchmark EXPERIMENTS.md and
# DESIGN.md quote, so they keep compiling and running. No timing is gated.
bench-smoke:
	$(GO) test -run=NONE -bench 'AnyKBuild|HRJNPull' -benchtime 1x -benchmem ./internal/exec
	$(GO) test -run=NONE -bench TAPlan -benchtime 1x -benchmem ./internal/oracle
	$(GO) test -run=NONE -bench Optimize -benchtime 1x ./internal/core

bench:
	$(GO) test -bench=. -benchmem ./...

# Every registered paper figure and ablation, run once to the end.
experiments:
	$(GO) run ./cmd/raqo-bench all >/dev/null

# The repo's end-to-end serving benchmark (BENCHMARK.json, benchmark/README.md):
# all four workloads, 25 s each, every response checked against brute force.
# Arguments pass through: make benchmark ARGS="--workload sharded-skew --seconds 3".
benchmark:
	bash benchmark/run.sh $(ARGS)

# Differential oracle, full 200-seed corpus; oracle-quick is the 40-seed
# subset CI runs.
oracle:
	$(GO) test ./internal/oracle

oracle-quick:
	$(GO) test ./internal/oracle -quick

# Short native-fuzz budget per sqlparse target.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=15s ./internal/sqlparse
	$(GO) test -run=NONE -fuzz=FuzzFingerprint -fuzztime=15s ./internal/sqlparse

# The REPL's debug endpoints, booted and curled.
debug-smoke:
	./scripts/debug_smoke.sh

# 3 s windows of the serving benchmark; each exits nonzero on any answer that
# differs from brute force.
smoke-sharded-skew:
	$(GO) run ./benchmark -workload sharded-skew -seconds 3

smoke-deep-dig:
	$(GO) run ./benchmark -workload deep-dig -seconds 3
