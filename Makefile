# Convenience targets for the FCatch reproduction.

GO ?= go

.PHONY: all build vet test race check bench bench-all alloc-gate loc eval random campaign examples clean

all: build test

# check is the tier-1 gate: build + vet + tests + race-detector tests. The
# race pass matters since the pipeline fans out across cores (Parallelism).
check: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./... 2>&1 | tee test_output.txt

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# The repository benchmark (BENCHMARK.json): all five workloads, end to end.
bench-all:
	$(GO) run ./bench -all

# Allocation volume of injection runs (campaign, evaluation) and of the
# analysis path (offline, predict) against fixed ceilings, bytes and mallocs
# per op.
alloc-gate:
	scripts/alloc_gate.sh

# Lines of non-test Go outside bench/: the number ROADMAP aim 2 tracks.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs wc -l | tail -1

# Regenerate every table and experiment of the paper's evaluation.
eval:
	$(GO) run ./cmd/fcatch-bench -all -pruning

# The Section 8.3 baseline at full scale.
random:
	$(GO) run ./cmd/fcatch-bench -randinject -runs 400

# The §8.3-extended campaign strategy comparison at full scale.
campaign:
	$(GO) run ./cmd/fcatch-bench -campaign -runs 400

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/mapreduce-commit
	$(GO) run ./examples/hbase-meta-hang
	$(GO) run ./examples/correlated-findings
	$(GO) run ./examples/random-vs-fcatch -runs 100

clean:
	rm -f test_output.txt bench_output.txt
