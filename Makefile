GO ?= go

# The one benchmark-regression guard (see internal/benchdiff). BENCH_RUN
# runs every guarded suite into one `go test -bench`-format stream:
#   1. the solver benchmarks — GF(2) presolve on/off, the cube-split
#      portfolio, the incremental session against fresh solvers, the
#      sessions' in-search Gauss on the m=512 planted cells, cost-model
#      dispatch against always-SAT, two goroutines on one
#      SessionOracle's warm session pool, one goroutine's forensic
#      queries on one warm session — where -benchtime=1x -count=5
#      keeps the workloads bounded while still giving a median;
#   2. the feature-extraction, decode-route (stream-ingest and windowed
#      forensic-witness k = 4), brute-walk (exhaustive m = 32, k = 5),
#      store-query, store-seal and stream-frame microbenchmarks;
#   3. the tprload per-class mean latencies.
BENCH_RUN = { \
	$(GO) test -run='^$$' -bench='^Benchmark(PresolveOnOff|ParallelWorkers|SessionQueries|SessionQueriesGauss|SessionOracleConcurrent|SessionWarm|Dispatch)$$' -count=5 -benchtime=1x . && \
	$(GO) test -run='^$$' -bench='^Benchmark(Features|DecodeRoute|DecodeRouteWindowed|BruteWalk|StoreQuery|StoreSeal|StreamFrame)$$' -count=5 -benchtime=2000x ./internal/reconstruct/ ./internal/decode/ ./internal/logstore/ ./internal/service/ && \
	$(GO) run ./cmd/tprload -self -bench -count 5; \
}

.PHONY: check fmt vet build test race bench-smoke diffcheck bench-check bench-record dispatch-check gauss-check metrics-smoke timeprintd service-smoke store-smoke load-smoke fuzz-smoke benchmark-test

# check is the canonical verification gate: formatting, vet, build,
# the full test suite under the race detector, and a single-pass run
# of the Figure 4 benchmark as an end-to-end smoke test plus the
# warm-session solver benchmark and the feature-extraction,
# decode-route (plain and windowed), store-query, store-seal and
# stream-frame microbenchmarks.
check: fmt vet build race bench-smoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# build also compiles the benchmark (benchmark/), a module of its own
# that builds against the exported types of internal/, so `make check`
# catches a change that breaks it.
build:
	$(GO) build ./...
	cd benchmark && $(GO) build -o /dev/null ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench-smoke:
	$(GO) test -run=NONE -bench='^Benchmark(Figure4|SessionWarm)$$' -benchtime=1x .
	$(GO) test -run=NONE -bench='^Benchmark(Features|DecodeRouteWindowed)$$' -benchtime=1x ./internal/reconstruct/
	$(GO) test -run=NONE -bench='^BenchmarkDecodeRoute$$' -benchtime=1x ./internal/decode/
	$(GO) test -run=NONE -bench='^Benchmark(StoreQuery|StoreSeal)$$' -benchtime=1x ./internal/logstore/
	$(GO) test -run=NONE -bench='^BenchmarkStreamFrame$$' -benchtime=1x ./internal/service/

# diffcheck runs the differential-oracle and fault-injection trust
# harness: a seeded 200-case corpus through every reconstruction
# oracle pair plus fault injection, under the race detector.
diffcheck:
	$(GO) run -race ./cmd/timeprint selfcheck -cases 200 -seed 1 -workers 2,4

# bench-check compares the medians of BENCH_RUN — ns/op, the
# deterministic summed solver conflicts, and B/op and allocs/op, which
# repeat only to within the few allocations the Go runtime's collector
# makes in a run — against BENCH.json, after printing the machine the baseline was recorded on
# and the current one. A row fails when it rose past its suite's
# threshold (0.30, and 0.75 for the wall-clock HTTP Load* rows; both
# stored in BENCH.json) or is missing from the run. bench-record
# rewrites BENCH.json, keeping its thresholds; do it deliberately, on
# the machine the guard runs on.
bench-check:
	$(BENCH_RUN) | $(GO) run ./cmd/benchdiff -baseline BENCH.json

bench-record:
	$(BENCH_RUN) | $(GO) run ./cmd/benchdiff -record -baseline BENCH.json \
		-note "solver benchmarks -count=5 -benchtime=1x, microbenchmarks -count=5 -benchtime=2000x, tprload -self -bench -count 5"

# dispatch-check is the dispatcher's CI job: vet and the test surface
# of the dispatcher and the engines it calls, with the GF(2) coset walk
# the brute and pinned routes answer from and the algebraic decoder the
# decode route shares across goroutines, under the race detector.
dispatch-check:
	$(GO) vet ./...
	$(GO) test -race -count=1 -run 'Dispatch|Route|Oracle|Classify|Strict|Session|Incremental|Brute|Walk|Decode' ./internal/reconstruct/ ./internal/service/ ./internal/gf2/ ./internal/decode/

# gauss-check is the in-search Gauss CI job: vet and the XOR/Gauss test
# surface under the race detector, including the 4-way differential
# parity hammer, plus the production mode: every session runs the
# propagator, so the root TestSessionWarmPinnedSearch pins its search
# (its first 16 queries under -race).
gauss-check:
	$(GO) vet ./...
	$(GO) test -race -count=1 -run 'Gauss|Xor|Parity' ./internal/sat/ ./internal/reconstruct/
	$(GO) test -race -count=1 -run '^TestSessionWarmPinnedSearch$$' .

# timeprintd builds the streaming reconstruction daemon; service-smoke
# runs its self-contained end-to-end smoke test (wire ingest, solve,
# cache hit, count, compare, /metrics counter contract) plus the
# service package's integration tests under the race detector. CI runs
# service-smoke as its own job.
timeprintd:
	$(GO) build -o timeprintd ./cmd/timeprintd

service-smoke:
	$(GO) run ./cmd/timeprintd -smoke
	$(GO) test -race -count=1 ./internal/service/

# store-smoke proves the durable log store end to end: the logstore
# invariant battery (crash-recovery matrix, compaction property test,
# concurrency hammer) under the race detector, the store/query/mine
# surfaces of the service and experiments packages, the timeprintd
# smoke (whose store leg ingests, queries, restarts the daemon on the
# same directory and re-queries identically), and the load harness
# with the store tee contract asserted. CI runs this as its own job.
store-smoke:
	$(GO) test -race -count=1 ./internal/logstore/
	$(GO) test -race -count=1 -run 'Store|Query|Mine' ./internal/service/ ./internal/experiments/
	$(GO) run ./cmd/timeprintd -smoke
	$(GO) run ./cmd/tprload -self -store

# load-smoke drives a self-contained timeprintd through the tprload
# request mixes (cache-hot, cold sessions, batch, stream, malformed,
# overload) and asserts the operational contract: latency SLOs, the
# shed budget, batch/stream encoding amortization and atomic batch
# admission. bench-check guards its per-class mean latencies.
load-smoke:
	$(GO) run ./cmd/tprload -self

# benchmark-test vets and tests the benchmark (benchmark/), a Go module
# of its own that the root `go test ./...` does not reach: a service
# change that breaks its compile or its answer checks fails here.
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# fuzz-smoke gives each fuzz target a short randomized burst on top of
# its seeded corpus — cheap enough for CI, still long enough to shake
# out parser regressions. One invocation per target: go test allows a
# single -fuzz pattern per package run.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadLog -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzBatchRequest -fuzztime=10s ./internal/service/
	$(GO) test -run='^$$' -fuzz=FuzzXorSystem -fuzztime=10s ./internal/sat/
	$(GO) test -run='^$$' -fuzz=FuzzSegment -fuzztime=10s ./internal/logstore/

# metrics-smoke exercises the observability contract end to end: a
# selfcheck run dumps a -metrics snapshot, metricscheck validates the
# JSON schema and the key instrument names, and `timeprint stats`
# renders it. CI runs this as its own job.
metrics-smoke:
	$(GO) run ./cmd/timeprint selfcheck -cases 40 -metrics /tmp/timeprint-metrics.json
	$(GO) run ./cmd/metricscheck -in /tmp/timeprint-metrics.json \
		-counter sat.solve.calls -counter sat.decisions -counter sat.conflicts \
		-counter sat.enumerate.models -counter sat.parallel.cubes \
		-counter reconstruct.instances -counter reconstruct.candidates \
		-counter core.wire.bytes_out \
		-hist sat.solve.ns -hist reconstruct.enumerate.ns -hist reconstruct.build.ns
	$(GO) run ./cmd/timeprint stats -in /tmp/timeprint-metrics.json
