GO ?= go

.PHONY: all build test test-short vet lint bench bench-json bench-smoke ci

all: ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

# lint runs the full static suite: go vet, the repo's own invariant
# analyzers (cmd/sflint: determinism, lockorder, hotpath, codecreg —
# see DESIGN.md §10), and, when installed, staticcheck and govulncheck.
# The external tools are gated on availability so offline checkouts
# still get vet + sflint; CI installs them and runs the same target.
lint: vet
	$(GO) run ./cmd/sflint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping"; \
	fi

# bench compiles and runs every benchmark once; use
#   go test -bench ExperimentWorkers -benchtime 5x .
# for stable parallel-speedup numbers on a multi-core machine.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-json records the speedup trajectory: the parallel-engine bench,
# the generator ablations (endpoint array vs Fenwick reference; the
# fitness/geopa rejection samplers), the per-model registry generation
# sweep (every registered family), the distribution layer (shard
# merge, warm-cache re-reduce, coordinator dispatch overhead), the
# observability tax (instrumented vs bare trial loop), and the E4 Monte
# Carlo (generator replay vs tree-building reference, ns/vertex, in
# internal/equivalence; its regex also matches the Cooper–Frieze
# BenchmarkMonteCarloEventProbCF), and the result cache's cold-Put and
# warm-Get cost per trial (BenchmarkCachePut, in internal/sweep), in
# `go test -json` event format, one JSON object per line. Commit the
# refreshed BENCH_gen.json whenever a PR moves these numbers.
bench-json:
	$(GO) test -run '^$$' \
		-bench 'BenchmarkExperimentWorkers|BenchmarkGenerateMori|BenchmarkGenerateCooperFrieze|BenchmarkGenerateFitness|BenchmarkGenerateGeoPA|BenchmarkGenerateModels|BenchmarkBFSParallel|BenchmarkSnapshotOpen|BenchmarkShardMerge|BenchmarkCacheHit|BenchmarkCoordinatorDispatch|BenchmarkMetricsOverhead|BenchmarkTraceOverhead|BenchmarkMonteCarloEventProb|BenchmarkCachePut' \
		-benchtime 3x -json . ./internal/equivalence ./internal/sweep > BENCH_gen.json

# bench-smoke is the CI-sized benchmark pass: every benchmark once at
# -short sizes, output discarded — it only has to not crash.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -short ./...

ci: build lint test
