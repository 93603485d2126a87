# Developer entry points. Everything here is plain go-tool plumbing; the
# Makefile only fixes the flags so `make lint` on a laptop runs exactly what
# CI runs.

GO ?= go

# Extra `go test` flags for bench-json; CI's short-scale run uses
# BENCHFLAGS='-short -benchtime=1x'.
BENCHFLAGS ?=
BENCH_PATTERN = ^(BenchmarkEstimateBatch|BenchmarkNewRangeSampler|BenchmarkRangeMassMC|BenchmarkResMADEForward256|BenchmarkMatMul|BenchmarkMatMulATB|BenchmarkMatMulABT|BenchmarkForwardSampling|BenchmarkSoftmax|BenchmarkShardedEstimate)$$
TRAIN_BENCH_PATTERN = ^(BenchmarkTrainJoint|BenchmarkShardedTrain)$$
SERVE_BENCH_PATTERN = ^BenchmarkServeLatency$$

.PHONY: build test test-short lint lint-json noalloc-check bench-json bench-json-estimate bench-json-train bench-json-serve

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# lint is the blocking gate: every finding fails it.
lint:
	$(GO) run ./cmd/iamlint ./...

# lint-json emits machine-readable diagnostics (used by CI artifacts).
lint-json:
	$(GO) run ./cmd/iamlint -json ./...

# noalloc-check enforces the iam:noalloc annotations: it fails on compiler
# escape notes (go build -gcflags=-m=2) inside an annotated function that no
# //lint:ignore noalloc <reason> covers; see cmd/noalloccheck.
noalloc-check:
	$(GO) run ./cmd/noalloccheck

# bench-json regenerates all three perf-trajectory files. Each target can
# also be run on its own (bench-json-estimate | -train | -serve), so
# iterating on one layer doesn't pay for re-benchmarking the others:
#   bench-json-estimate — estimation benchmarks (EstimateBatch worker
#     scaling, the §5.2 sample-set build and range-mass lookup, ResMADE
#     forward, matmul kernels, sharded-ensemble estimate with/without early
#     termination) into BENCH_estimate.json
#   bench-json-train    — training benchmarks (TrainJoint worker scaling,
#     sharded-ensemble training vs shard count) into BENCH_train.json
#   bench-json-serve    — end-to-end server latency (ServeLatency
#     p50/p95/p99) into BENCH_serve.json
# The intermediate .bench.out keeps go test's exit status visible to make (a
# pipe would swallow it).
bench-json: bench-json-estimate bench-json-train bench-json-serve

bench-json-estimate:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem $(BENCHFLAGS) \
		./internal/core ./internal/gmm ./internal/nn ./internal/vecmath ./internal/shard > .bench.out
	$(GO) run ./cmd/benchjson -o BENCH_estimate.json < .bench.out
	rm -f .bench.out

bench-json-train:
	$(GO) test -run '^$$' -bench '$(TRAIN_BENCH_PATTERN)' -benchmem $(BENCHFLAGS) \
		./internal/core ./internal/shard > .bench.out
	$(GO) run ./cmd/benchjson -o BENCH_train.json < .bench.out
	rm -f .bench.out

bench-json-serve:
	$(GO) test -run '^$$' -bench '$(SERVE_BENCH_PATTERN)' -benchmem $(BENCHFLAGS) \
		./internal/serve > .bench.out
	$(GO) run ./cmd/benchjson -o BENCH_serve.json < .bench.out
	rm -f .bench.out
