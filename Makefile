# CI / developer targets. `make ci` is the gate: formatting, vet, the
# full test suite under the race detector, the benchmark module's own
# vet and unit tests (it is outside ./...), the zero-allocation guards
# (which need a non-race run — the race runtime allocates), and the
# fault-injection suite repeated twice.

GO ?= go

# The committed microbenchmark run that bench-pr refreshes and
# bench-diff / alloc-check hold against BENCH_baseline.json.
BENCH_CUR ?= BENCH_pr10.json

.PHONY: ci fmt vet deps test test-matrix race flake bench-unit bench-repo bench bench-pr bench-diff bench-engine bench-hot alloc-guard alloc-check fuzz-smoke fault fleet-smoke scenario scenario-check soak soak-smoke soak-smoke-p4

ci: fmt vet deps race bench-unit test-matrix alloc-guard alloc-check fuzz-smoke fault fleet-smoke soak-smoke soak-smoke-p4

# Fail if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The engine has one ingest spine of its own (router-owned monitor,
# inline or fanned-out sink); the library pipeline is the oracle its
# tests compare against, not something it may be built on again. Nor
# may the from-scratch merge serve production again: core.MergeSnapshots
# is the oracle the tests and bench/ hold MergeIndex and the exports to,
# so no non-test file but its own definition may call it.
deps:
	! $(GO) list -deps ./internal/engine | grep -q daccor/internal/pipeline
	! grep -rl --include='*.go' --exclude='*_test.go' 'MergeSnapshots(' internal cmd pkg examples | grep -vx internal/core/merge.go

test:
	$(GO) test ./...

# Scheduler-width matrix for the partitioned engine: the same engine
# suite under one scheduler thread (every worker interleaves on one
# core — exposes livelocks and missed wakeups) and four (real
# parallelism between producers, the router, and partition workers —
# exposes ordering races). Differential identity P>1 ≡ P=1 must hold
# under both.
test-matrix:
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/engine
	GOMAXPROCS=4 $(GO) test -count=1 ./internal/engine

race:
	$(GO) test -race ./...

# Lifecycle orderings that once depended on the scheduler (a periodic
# checkpoint save outliving Stop, the StopTimeout drain, a restore
# beside a save in flight): fifty runs under the race detector,
# zero-failure budget.
flake:
	$(GO) test -race -count=50 -run 'TestFaultPanicRecoveryFromCheckpoint|TestFaultPartitionedPanicRecovery|TestStop|TestRestoreBesideInFlightSave' ./internal/engine ./internal/checkpoint

# bench/ is its own module, so ./... never reaches it: vet it and run
# its unit tests here, or a root-module refactor that renames something
# it imports (realtime.NewEngineHandler, fleet.NewHandler, ...) breaks
# the repository benchmark without any gate noticing. Compile-and-unit
# only (< 1 s); the benchmark itself is `make bench-repo`.
bench-unit:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# The repository benchmark (BENCHMARK.json): all five workloads end to
# end, untraced then traced, a few minutes. Not part of `make ci` — its
# numbers are judged in alternating parent/change pairs, not against a
# threshold; for one workload or one pass call bench/run.sh directly.
bench-repo:
	bash bench/run.sh

# The AllocsPerRun guards must run without -race (the race runtime
# itself allocates, which would mask — or falsely trip — a hot-path
# allocation regression). Besides the synopsis, they hold the pooled
# HTTP ingest decode to zero allocations per request.
alloc-guard:
	$(GO) test -run 'ZeroAllocSteadyState|AllocsBoundedByTop|AllocsBoundedByDelta|AllocsFlatAcrossFleet' ./internal/core ./internal/engine ./internal/realtime

# Thirty seconds of the ingest scanner against its encoding/json oracle
# (same accept/reject set, events, and error text), then thirty of the
# merge index's walk against MergeSnapshots. A short minimization
# budget keeps the fuzzer mutating: minimizing one of the 10 000-event
# seeds would otherwise eat the whole run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzIngestDecode$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/realtime
	$(GO) test -run '^$$' -fuzz '^FuzzMergeIndexApply$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/core

# Fault-injection and recovery suite: supervised worker panics,
# checkpoint write failures, restore paths, post-Stop semantics.
# -count=2 catches state leaking across runs (a supervisor that only
# recovers once, a checkpoint store that can't reopen its directory).
fault:
	$(GO) test -race -count=2 -run 'Fault|Supervisor|Checkpoint|Stopped|Health|Readyz' \
		./internal/engine ./internal/checkpoint ./internal/realtime

# Fleet end-to-end smoke: two engine-backed collectors delta-syncing
# into an aggregator over real HTTP, one collector killed (degraded
# serving asserted) and restarted from its checkpoints, with the
# merged view required to reconverge on the single-process merge.
fleet-smoke:
	$(GO) test -race -count=1 -run 'TestFleetSmoke' ./internal/fleet

# Full benchmark harness: the hot-path microbenchmarks (synopsis
# table, analyzer, batched engine ingest) plus one benchmark per
# table/figure of the paper's evaluation. The text output is converted
# by cmd/benchjson and recorded as BENCH_baseline.json — commit the
# refreshed file when a change intentionally moves the numbers.
bench:
	@$(GO) test -bench . -benchmem -run '^$$' . ./internal/core ./internal/engine | tee bench.out
	@$(GO) run ./cmd/benchjson -o BENCH_baseline.json < bench.out
	@rm -f bench.out
	@echo "wrote BENCH_baseline.json"

# Record the current change's full benchmark run alongside the
# committed baseline (BENCH_baseline.json stays untouched — it is the
# comparison anchor). Commit the refreshed $(BENCH_CUR) with a
# change that intentionally moves the numbers.
bench-pr:
	@$(GO) test -bench . -benchmem -run '^$$' . ./internal/core ./internal/engine | tee bench.out
	@$(GO) run ./cmd/benchjson -o $(BENCH_CUR) < bench.out
	@rm -f bench.out
	@echo "wrote $(BENCH_CUR)"

# Human-readable delta table between the two committed runs.
bench-diff:
	$(GO) run ./cmd/benchjson -diff BENCH_baseline.json $(BENCH_CUR)

# Allocation gate: ns/op is machine- and load-sensitive, but allocs/op
# is deterministic, so CI can hold the committed run to "no benchmark
# allocates more than the baseline" without flaking. The merged fan-in
# read additionally gates on -fail-on-alloc-increase: its allocs/op
# must stay flat (and present) at every fleet size — that flatness is
# the incremental-merge contract, not an incidental number.
alloc-check:
	$(GO) run ./cmd/benchjson -diff -fail-on-alloc-regress \
		-fail-on-alloc-increase 'MergedReadUnderIngest.*incremental' \
		BENCH_baseline.json $(BENCH_CUR)

# Hot-path benchmarks only: the numbers the zero-allocation work
# tracks (guarded separately by the AllocsPerRun tests).
bench-hot:
	$(GO) test -bench 'TableTouch|AnalyzerProcess|EngineSubmitBatch' -benchmem -run '^$$' ./internal/core ./internal/engine
	$(GO) test -bench 'EngineIngest|OnlineAnalysisThroughput|MonitorThroughput' -benchmem -run '^$$' .

# Multi-device ingest benchmark only: throughput scaling with worker
# count (compare devices-1 vs devices-4 ns/op on a multi-core host).
bench-engine:
	$(GO) test -bench Engine -benchmem -run '^$$' .

# Closed-loop scenario (replay → HTTP ingest → /v1/watch push → live
# prefetcher + stream assigner). `scenario` refreshes the committed
# quick-run record; `scenario-check` re-runs it and diffs against the
# committed file — the command itself exits non-zero unless the online
# rules strictly beat the no-rules baseline.
scenario:
	$(GO) run ./cmd/scenario -quick -o SCENARIO_quick.json
	@echo "wrote SCENARIO_quick.json"

scenario-check:
	@$(GO) run ./cmd/scenario -quick -o scenario_run.json
	$(GO) run ./cmd/benchjson -diff -fail-on-alloc-regress SCENARIO_quick.json scenario_run.json
	@rm -f scenario_run.json

# Million-event multi-tenant soak (cmd/loadgen): sustained engine +
# HTTP ingest across 256 devices with tenant churn, injected worker
# crashes, checkpoint cycles, and concurrent query/watch traffic,
# under the race detector. The run itself asserts its SLOs (exit 1 on
# any violation) and records its metrics in the benchjson schema.
# `soak` refreshes the committed SOAK_quick.json; `soak-smoke` re-runs
# the same profile and diffs against the committed file, gating on the
# SLO-violation counter so a soak regression fails CI. The run is
# reproducible per (profile, seed); the throughput and latency entries
# are host-sensitive, which is why only SoakSLOViolations is gated and
# the rest are tracked for drift review.
soak:
	$(GO) run -race ./cmd/loadgen -profile quick -o SOAK_quick.json
	@echo "wrote SOAK_quick.json"

soak-smoke:
	$(GO) run -race ./cmd/loadgen -profile quick -o soak_run.json
	$(GO) run ./cmd/benchjson -diff -fail-on-increase 'SoakSLOViolations' SOAK_quick.json soak_run.json
	@rm -f soak_run.json

# P>1 soak smoke: the tiny profile with each device's analyzer split
# across four partition workers — partitioned ingest, merged queries,
# churn, crash recovery, and the reorder-late SLO under the race
# detector. loadgen itself exits non-zero on any SLO violation, so no
# committed baseline is needed.
soak-smoke-p4:
	$(GO) run -race ./cmd/loadgen -profile tiny -partitions 4 -o soak_p4_run.json
	@rm -f soak_p4_run.json
