GO ?= go

.PHONY: all fmt vet build test race bench benchmark oracle fuzz ci

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

# Differential oracle, full 200-seed corpus (CI runs the -quick subset).
oracle:
	$(GO) test ./internal/oracle

# Short native-fuzz budget per sqlparse target.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=15s ./internal/sqlparse
	$(GO) test -run=NONE -fuzz=FuzzFingerprint -fuzztime=15s ./internal/sqlparse

ci: fmt vet build race
	$(GO) test ./internal/oracle -quick
