GO ?= go

# The guarded benchmarks and their recorded baseline (see
# internal/benchdiff). -benchtime=1x -count=5 keeps the solver
# workloads bounded while still giving the guard a median.
BENCH_GUARD    ?= BenchmarkPresolveOnOff|BenchmarkParallelWorkers
BENCH_BASELINE ?= BENCH_PR3.json
BENCH_FLAGS     = -run='^$$' -bench='$(BENCH_GUARD)' -count=5 -benchtime=1x .

# The incremental-session benchmark and its own baseline (PR6): the
# 16-query m=512/k=8 session, incremental vs fresh-solver.
SESSION_GUARD    = BenchmarkSessionQueries
SESSION_BASELINE = BENCH_PR6.json
SESSION_FLAGS    = -run='^$$' -bench='$(SESSION_GUARD)' -count=5 -benchtime=1x .

# The cost-model dispatcher benchmark and its baseline (PR7): a
# rank-pinned/small-k request mix, auto-routing vs always-SAT.
DISPATCH_GUARD    = BenchmarkDispatch
DISPATCH_BASELINE = BENCH_PR7.json
DISPATCH_FLAGS    = -run='^$$' -bench='$(DISPATCH_GUARD)' -count=5 -benchtime=1x .

# The in-search Gauss benchmark and its baseline (PR9): the planted
# unconstrained m=512 witness cells (k = 3, 4, 8), in-search Gaussian
# elimination vs level-0-only reduction. The guarded column is the
# summed CONFLICT count, not ns/op: the planted entries make it a
# deterministic solver-effort metric, so the guard pins the propagation
# win itself and survives noisy CI wall clocks.
GAUSS_GUARD    = BenchmarkSessionQueriesGauss
GAUSS_BASELINE = BENCH_PR9.json
GAUSS_FLAGS    = -run='^$$' -bench='$(GAUSS_GUARD)' -count=5 -benchtime=1x .

# The tprload latency baseline (PR8): client-side mean latency per
# request class (hot/cold/batch/stream) from the load harness. The
# guard threshold is loose (75%) because these are wall-clock HTTP
# latencies on a shared CI box, not isolated CPU benchmarks.
LOAD_BASELINE = BENCH_PR8.json

.PHONY: check fmt vet build test race bench-smoke diffcheck benchdiff benchrecord session-bench session-bench-record dispatch-bench dispatch-bench-record dispatch-check gauss-bench gauss-bench-record gauss-check metrics-smoke timeprintd service-smoke store-smoke load-smoke load-bench load-bench-record fuzz-smoke benchmark-test

# check is the canonical verification gate: formatting, vet, build,
# the full test suite under the race detector, and a single-pass run
# of the Figure 4 benchmark as an end-to-end smoke test plus the
# feature-extraction and decode-route microbenchmarks.
check: fmt vet build race bench-smoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench-smoke:
	$(GO) test -run=NONE -bench=BenchmarkFigure4 -benchtime=1x .
	$(GO) test -run=NONE -bench='^BenchmarkFeatures$$' -benchtime=1x ./internal/reconstruct/
	$(GO) test -run=NONE -bench='^BenchmarkDecodeRoute$$' -benchtime=1x ./internal/decode/

# diffcheck runs the differential-oracle and fault-injection trust
# harness: a seeded 200-case corpus through every reconstruction
# oracle pair plus fault injection, under the race detector.
diffcheck:
	$(GO) run -race ./cmd/timeprint selfcheck -cases 200 -seed 1 -workers 2,4

# benchdiff is the benchmark-regression guard: rerun the guarded
# benchmarks and fail if any median slowed >30% against the recorded
# baseline. benchrecord refreshes the baseline (do this deliberately,
# on the same class of machine the guard will run on).
benchdiff:
	$(GO) test $(BENCH_FLAGS) | $(GO) run ./cmd/benchdiff -baseline $(BENCH_BASELINE) -threshold 0.30

benchrecord:
	$(GO) test $(BENCH_FLAGS) | $(GO) run ./cmd/benchdiff -record -out $(BENCH_BASELINE) -note "count=5 benchtime=1x $(BENCH_GUARD)"

# session-bench guards the incremental-session speedup (PR6): rerun
# BenchmarkSessionQueries and fail if either side's median slowed >30%
# against BENCH_PR6.json. session-bench-record refreshes that baseline.
session-bench:
	$(GO) test $(SESSION_FLAGS) | $(GO) run ./cmd/benchdiff -baseline $(SESSION_BASELINE) -threshold 0.30

session-bench-record:
	$(GO) test $(SESSION_FLAGS) | $(GO) run ./cmd/benchdiff -record -out $(SESSION_BASELINE) -note "count=5 benchtime=1x $(SESSION_GUARD)"

# dispatch-bench guards the cost-model routing win (PR7): rerun
# BenchmarkDispatch and fail if either side's median slowed >30%
# against BENCH_PR7.json. dispatch-bench-record refreshes that
# baseline. dispatch-check is the CI job: vet, the dispatcher/oracle
# test surface under the race detector, then the benchmark guard.
dispatch-bench:
	$(GO) test $(DISPATCH_FLAGS) | $(GO) run ./cmd/benchdiff -baseline $(DISPATCH_BASELINE) -threshold 0.30

dispatch-bench-record:
	$(GO) test $(DISPATCH_FLAGS) | $(GO) run ./cmd/benchdiff -record -out $(DISPATCH_BASELINE) -note "count=5 benchtime=1x $(DISPATCH_GUARD)"

dispatch-check:
	$(GO) vet ./...
	$(GO) test -race -count=1 -run 'Dispatch|Route|Oracle|Classify|Strict|Session|Incremental' ./internal/reconstruct/ ./internal/service/
	$(MAKE) dispatch-bench

# gauss-bench guards the in-search Gauss propagation win (PR9): rerun
# BenchmarkSessionQueriesGauss and fail if either side's median summed
# conflict count rose >30% against BENCH_PR9.json — a rise on the
# insearch side means the matrix propagator lost its advantage.
# gauss-bench-record refreshes the baseline (conflicts are
# deterministic for a fixed solver, so any material diff is a real
# behavior change, not machine noise). gauss-check is the CI job: vet,
# the XOR/Gauss test surface under the race detector (including the
# 4-way differential parity hammer), then the benchmark guard.
gauss-bench:
	$(GO) test $(GAUSS_FLAGS) | $(GO) run ./cmd/benchdiff -metric conflicts -baseline $(GAUSS_BASELINE) -threshold 0.30

gauss-bench-record:
	$(GO) test $(GAUSS_FLAGS) | $(GO) run ./cmd/benchdiff -metric conflicts -record -out $(GAUSS_BASELINE) -note "count=5 benchtime=1x $(GAUSS_GUARD), median summed conflicts (planted m=512 k=3,4,8)"

gauss-check:
	$(GO) vet ./...
	$(GO) test -race -count=1 -run 'Gauss|Xor|Parity' ./internal/sat/ ./internal/reconstruct/
	$(MAKE) gauss-bench

# metrics-smoke exercises the observability contract end to end: a
# selfcheck run dumps a -metrics snapshot, metricscheck validates the
# JSON schema and the key instrument names, and `timeprint stats`
# renders it. CI runs this as its own job.
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
# admission. load-bench guards the per-class mean latencies against
# BENCH_PR8.json; load-bench-record refreshes that baseline.
load-smoke:
	$(GO) run ./cmd/tprload -self

load-bench:
	$(GO) run ./cmd/tprload -self -bench -count 5 | $(GO) run ./cmd/benchdiff -baseline $(LOAD_BASELINE) -threshold 0.75

load-bench-record:
	$(GO) run ./cmd/tprload -self -bench -count 5 | $(GO) run ./cmd/benchdiff -record -out $(LOAD_BASELINE) -note "tprload -self -bench -count 5, per-class mean latency"

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

metrics-smoke:
	$(GO) run ./cmd/timeprint selfcheck -cases 40 -metrics /tmp/timeprint-metrics.json
	$(GO) run ./cmd/metricscheck -in /tmp/timeprint-metrics.json \
		-counter sat.solve.calls -counter sat.decisions -counter sat.conflicts \
		-counter sat.enumerate.models -counter sat.parallel.cubes \
		-counter reconstruct.instances -counter reconstruct.candidates \
		-counter core.wire.bytes_out \
		-hist sat.solve.ns -hist reconstruct.enumerate.ns -hist reconstruct.build.ns
	$(GO) run ./cmd/timeprint stats -in /tmp/timeprint-metrics.json
