# CI / developer targets. `make ci` is the gate: formatting, vet, the
# full test suite under the race detector, the benchmark module's own
# vet and unit tests (it is outside ./...), the zero- and flat-allocation
# guards (which need a non-race run — the race runtime allocates), the
# fault-injection suite repeated twice, the fuzz smokes, and the
# closed-loop, fleet and soak smokes. Every gate is a program or test
# run whose exit status enforces its contract.

GO ?= go

.PHONY: ci fmt vet deps test test-matrix race flake bench-unit bench-repo bench-engine bench-hot alloc-guard fuzz-smoke fault fleet-smoke scenario-check soak-smoke soak-smoke-p4

ci: fmt vet deps race bench-unit test-matrix alloc-guard fuzz-smoke fault scenario-check fleet-smoke soak-smoke soak-smoke-p4

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
# so no non-test file but its own definition may call it. The synopsis
# formats' bytes are laid out in one place: no non-test file but the
# codec (internal/binio), the record layouts (core/records.go) and the
# trace stream codec (blktrace/codec.go, a format of its own with its
# own EOF rules) may import encoding/binary. The synopsis indexes hash
# their keys with core's own seeded word mix (oaindex.go): no non-test
# file under internal/ may hash a key through maphash.Comparable, the
# runtime's generic memory hash, again.
deps:
	! $(GO) list -deps ./internal/engine | grep -q daccor/internal/pipeline
	! grep -rl --include='*.go' --exclude='*_test.go' 'MergeSnapshots(' internal cmd pkg examples | grep -vx internal/core/merge.go
	! grep -rl --include='*.go' --exclude='*_test.go' '"encoding/binary"' internal cmd pkg examples | grep -vxE 'internal/binio/binio.go|internal/core/records.go|internal/blktrace/codec.go'
	! grep -rl --include='*.go' --exclude='*_test.go' 'maphash\.Comparable' internal

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
# beside a save in flight, the hand-off of the partition analyzers
# between their workers and the router, one stats read agreeing with
# itself right after a submit): fifty runs under the race detector,
# zero-failure budget.
flake:
	$(GO) test -race -count=50 -run 'TestFaultPanicRecoveryFromCheckpoint|TestFaultPartitionedPanicRecovery|TestStop|TestRestoreBesideInFlightSave|TestPartitionedStress|TestFaultQueryDuringPanicIsAnswered|TestStatsAfterSubmitIsDrained' ./internal/engine ./internal/checkpoint

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
# HTTP ingest decode to zero allocations per request, and the merged
# read's allocations flat across fleet sizes (SteadyStateAllocs in
# core, AllocsFlatAcrossFleet in engine), the monitor's transaction
# grouping to zero allocations, and a drained engine ingest run's
# allocations flat in its event count (SteadyStateAllocs in engine).
alloc-guard:
	$(GO) test -run 'ZeroAllocSteadyState|SteadyStateAllocs|AllocsBoundedByTop|AllocsBoundedByDelta|AllocsFlatAcrossFleet' ./internal/core ./internal/engine ./internal/monitor ./internal/realtime

# Thirty seconds of the ingest scanner against its encoding/json oracle
# (same accept/reject set, events, and error text), thirty of the
# merge index's walk against MergeSnapshots, thirty of the analyzer's
# pair-membership lists against a brute-force scan of the live pairs
# (at P = 1 and 2, with items evicted and re-admitted), then thirty
# each of the checkpoint decoder (every failure a typed sentinel) and
# the sync frame decoder (what it accepts re-encodes to the same
# bytes). A short
# minimization budget keeps the fuzzer mutating: minimizing one of the
# 10 000-event seeds would otherwise eat the whole run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzIngestDecode$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/realtime
	$(GO) test -run '^$$' -fuzz '^FuzzMergeIndexApply$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyzerMembership$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaDecode$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/fleet

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

# Hot-path benchmarks: the numbers the zero-allocation work
# tracks (guarded separately by the AllocsPerRun tests).
bench-hot:
	$(GO) test -bench 'TableTouch|AnalyzerProcess|EngineSubmitBatch' -benchmem -run '^$$' ./internal/core ./internal/engine
	$(GO) test -bench 'EngineIngest|OnlineAnalysisThroughput|MonitorThroughput' -benchmem -run '^$$' .

# Multi-device ingest benchmark only: throughput scaling with worker
# count (compare devices-1 vs devices-4 ns/op on a multi-core host).
bench-engine:
	$(GO) test -bench Engine -benchmem -run '^$$' .

# Closed-loop scenario (replay → HTTP ingest → /v1/watch push → live
# prefetcher + stream assigner). The command exits non-zero unless the
# online rules strictly beat the no-rules baseline's cache hit rate.
scenario-check:
	$(GO) run ./cmd/scenario -quick

# Million-event multi-tenant soak (cmd/loadgen): sustained engine +
# HTTP ingest across 256 devices with tenant churn, injected worker
# crashes, checkpoint cycles, and concurrent query/watch traffic,
# under the race detector. The run asserts its own SLOs and exits
# non-zero on any violation. The run is reproducible per (profile,
# seed); the SLO bounds catch order-of-magnitude regressions, not
# host-sensitive drift.
soak-smoke:
	$(GO) run -race ./cmd/loadgen -profile quick

# P>1 soak smoke: the tiny profile with each device's analyzer split
# across four partition workers — partitioned ingest, merged queries,
# churn, crash recovery, and the reorder-late SLO under the race
# detector, gated by loadgen's own exit status.
soak-smoke-p4:
	$(GO) run -race ./cmd/loadgen -profile tiny -partitions 4
