# Development targets, mirrored by .github/workflows/ci.yml.
#
# CI gates (every push / pull request):
#   make check        tier-1: vet + build + full test suite (Go 1.22 and 1.23)
#   make fmt-check    gofmt -l must be empty
#   make race         race detector over the short suite
#   make race-stress  parallel/stress tests x3 under the race detector — the
#                     Manager is documented single-threaded, but frozen
#                     snapshots are sampled concurrently (and now served
#                     concurrently by weaksimd), so those paths get dedicated
#                     race coverage
#   make bench-gate   frozen-sampling ns/shot (one Sample call, and
#                     core.TallyChunk's binomial split) and live
#                     build+freeze vs the committed baseline in
#                     BENCH_FROZEN.txt (best of 3 runs vs the slowest
#                     committed row, 25% tolerance)
#   make cover-gate   total statement coverage >= the floor in coverage.floor
#   make slo-gate     the serve trace and SLO tests, uncached: trace IDs on
#                     every response, cold/warm ?debug=1 breakdowns,
#                     well-formed /v1/slo, /v1/stats and /debug/flight
#   make cluster-gate the cluster e2e tests under -race, uncached: 3
#                     in-process replicas + router, cold/warm/kill-one-mid-
#                     load, zero failed requests and zero second strong
#                     simulations
#   make bench-smoke  vet and test cmd/weakbench, a module of its own that
#                     root `go test ./...` never builds, against the library
#                     API it compiles with
#   make job-gate     durable batch-job e2e: build the real weaksimd binary,
#                     SIGKILL it mid-run, restart, and assert every job
#                     finishes with counts bit-identical to an uninterrupted
#                     reference run and at most one re-sampled chunk per job
#                     (see cmd/jobgate)
#   make lint         go vet plus staticcheck (when installed; CI pins
#                     STATICCHECK_VERSION)
#
# The perf and coverage gates are armed by committed files: regenerate
# BENCH_FROZEN.txt with `make bench-frozen` when the fleet changes, and
# raise coverage.floor as the suite grows (never lower it to merge).

GO ?= go

# Pinned staticcheck release used by the CI lint job (and `make lint` when a
# staticcheck binary is on PATH — we never install tools implicitly).
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: check build vet test fmt-check lint race race-stress chaos fuzz-smoke bench bench-frozen bench-gate bench-smoke bench-json cover cover-gate slo-gate cluster-gate job-gate table serve clean

check: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Fails when any file needs gofmt; prints the offenders.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Static analysis: go vet always, staticcheck when a binary is available.
# The lint job in CI installs the pinned STATICCHECK_VERSION first; locally
# we skip with a notice rather than install tools behind your back.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck $$(staticcheck -version 2>/dev/null | head -1)"; \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; ran go vet only" ; \
		echo "lint: install with: go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
	fi

race:
	$(GO) test -race -short ./...

# Dedicated race stress over the freeze-then-sample worker pool: every
# parallel/stress test, three times, under the race detector.
race-stress:
	$(GO) test -race -run 'Parallel|Stress|Workers' -count=3 ./...

# Chaos suite: every deterministic fault-injection test (the internal/fault
# matrix across dd, core, serve, snapstore, and the daemon's kill-and-restart
# e2e) under the race detector. The fault plan is process-global state
# flipped mid-test, so the race detector is part of the contract, not an
# extra.
chaos:
	$(GO) test -race -run 'Chaos|Fault' -count=1 ./...

# Short fuzz smoke for CI: the QASM parser on byte soup, the parser against
# its reference (reference_test.go: same errors, same ops to the parameter
# bit), QASM write/parse round trips, the snapshot binary decoder, the
# unique-table node constructor, the frozen binomial split against a
# reference split over the live diagram, the binomial sampler over every
# float64 probability, weight canonicalization against its Frexp/Ldexp
# reference, and the request body scanner against the encoding/json
# decoder it replaced (front_test.go), ~30s each. Not a soak — just enough
# to catch a decoder that panics on the corpus neighborhoods of valid
# inputs, a parsing or sampling path that drifts from its reference, a
# binomial draw that leaves [0, n] or hangs, a canonical weight that moves
# by one bit, or a request body the scanner and the decoder disagree on.
# Each -fuzz pattern is anchored: go test refuses one that matches two
# targets, and FuzzParse prefixes FuzzParseMatchesReference.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 30s ./internal/circuit/qasm
	$(GO) test -run '^$$' -fuzz '^FuzzParseMatchesReference$$' -fuzztime 30s ./internal/circuit/qasm
	$(GO) test -run '^$$' -fuzz '^FuzzWriteParse$$' -fuzztime 30s ./internal/circuit/qasm
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 30s ./internal/dd
	$(GO) test -run '^$$' -fuzz FuzzMakeVNode -fuzztime 30s ./internal/dd
	$(GO) test -run '^$$' -fuzz FuzzCountsFrozen -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzBinomial -fuzztime 30s ./internal/rng
	$(GO) test -run '^$$' -fuzz FuzzLookupFloat -fuzztime 30s ./internal/cnum
	$(GO) test -run '^$$' -fuzz '^FuzzScanMatchesJSON$$' -fuzztime 30s ./internal/serve

# The DD sampling benchmarks watched for regressions (Section IV): the
# per-shot frozen walk per Table I row, and the walk under each
# normalization scheme (Section IV-C).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSampleFrozen|BenchmarkNormalizationSchemes' -benchtime 2s .

# Frozen-walk per-shot sampling cost (committed snapshot lives in
# BENCH_FROZEN.txt). Sampling rows run at 2M fixed iterations x3 so the
# committed baseline is a min-of-3 of ~0.2-3s measurements — long enough to average over scheduler jitter on
# small hosts, and symmetric with what cmd/benchcheck measures. The freeze
# benchmark runs separately with a small fixed iteration count: one freeze
# of shor_33_2 costs ~20ms, so 2000000x would blow the go test timeout.
bench-frozen:
	$(GO) test -run '^$$' -bench 'BenchmarkSampleFrozen' -benchtime 2000000x -count 3 .
	$(GO) test -run '^$$' -bench 'BenchmarkCountsFrozen' -benchtime 2000000x -count 3 .
	$(GO) test -run '^$$' -bench 'BenchmarkFreeze' -benchtime 50x .
	$(GO) test -run '^$$' -bench 'BenchmarkBuildFreeze' -benchtime 10x -count 3 .

# CI perf regression gate: re-run BenchmarkSampleFrozen (3 runs, keep the
# fastest) and compare against the slowest committed row per benchmark in
# BENCH_FROZEN.txt with 25% tolerance. The min-vs-max asymmetry is what
# keeps the gate quiet on hosts whose schedulers drift between runs while
# still catching real slowdowns. See cmd/benchcheck for the knobs.
# The second invocation gates the live-engine build+freeze path (arena
# allocation, open-addressing unique tables, direct-mapped compute caches):
# a whole-circuit strong simulation plus Freeze per iteration, so a storage
# regression that per-shot sampling can't see still trips CI. The third
# gates what count-producing calls pay per shot: core.TallyChunk over
# 65,536-shot chunks, split down the walk table by binomial draws and
# tallied into a core.Tally (dense for qft_16 and jellium_2x2, one
# ascending run for the 18-qubit shor rows), with no map built.
bench-gate:
	$(GO) run ./cmd/benchcheck
	$(GO) run ./cmd/benchcheck -bench BenchmarkBuildFreeze -benchtime 10x
	$(GO) run ./cmd/benchcheck -bench BenchmarkCountsFrozen

# The end-to-end benchmark (cmd/weakbench) is a Go module of its own, so
# root `go test ./...` never compiles it. This smoke target vets and tests
# it against the library API it imports, then runs BenchmarkSampleResponse
# (one warm 1M-shot qft_16 /v1/sample answer, encode included; reports
# ns/shot and allocs/op) and BenchmarkWarmSample (warm 1,024-shot QASM
# qft_16 and qft_32 requests through the handler with traces on; reports
# allocs/op and B/op) and BenchmarkResolveRequest's warm rows (a body read,
# scanned and answered from the spelling memo). None gates anything. The
# resolve rows get their own run: -bench matches sub-benchmarks level by
# level, so "BenchmarkResolveRequest/warm" in the first pattern would also
# filter BenchmarkWarmSample's rows.
bench-smoke:
	cd cmd/weakbench && $(GO) vet . && $(GO) test .
	$(GO) test -run '^$$' -bench 'BenchmarkSampleResponse|BenchmarkWarmSample' -benchtime 5x ./internal/serve
	$(GO) test -run '^$$' -bench 'BenchmarkResolveRequest/warm' -benchtime 5x ./internal/serve

# Statement coverage with an HTML-able profile.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# CI coverage gate: total statement coverage must not drop below the floor
# committed in coverage.floor.
cover-gate: cover
	@floor="$$(cat coverage.floor)"; \
	total="$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}')"; \
	echo "coverage: total $$total% (floor $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage gate FAILED: $$total% < $$floor%"; exit 1; }

# Observability gate: the serve package's trace and SLO tests
# (internal/serve/trace_test.go, slo_test.go, and the error-counter test),
# uncached. An in-process daemon takes cold and warm /v1/sample requests;
# every response carries X-Weaksim-Trace-Id, an inbound traceparent is
# adopted, a cold ?debug=1 breakdown covers parse..sample and sums to the
# wall time, a warm one is cached with no build/apply/freeze phase, one
# answered from the spelling memo is timed as parse (the decode), hash (the
# memo probe), sample and encode, tiling its wall time, and /v1/slo,
# /v1/stats and /debug/flight are well-formed.
slo-gate:
	$(GO) test -count=1 -run '^Test(SLO|Serve(Trace|DisableRequestTraces|ColdRequestPhaseSum|StatsEndpoint|FlightEndpoint|PhaseTimedOnce|JobPhasesFromTrace|ErrorsCountSampleAnswersOnly|WarmHitPhases))' ./internal/serve

# Replica-cluster gate: the cluster e2e tests (internal/cluster/e2e_test.go)
# under the race detector, uncached. Three in-process replicas behind the
# router serve six circuits, each simulated once fleet-wide and shipped
# once; one primary is killed under six concurrent loaders with zero
# non-200 answers and baseline counts, no second strong simulation, and
# GET /v1/cluster then reports it unhealthy.
cluster-gate:
	$(GO) test -race -count=1 -run '^TestCluster(EndToEndKillAndShip|ShipOnJoin|TraceRidesToReplica)$$' ./internal/cluster

# Durable batch-job e2e gate: build weaksimd, run three jobs uninterrupted
# for reference counts, SIGKILL a second daemon mid-run, restart it on the
# same WAL dir, and assert all jobs complete bit-identically with at most
# one re-sampled chunk per job. See cmd/jobgate.
job-gate:
	$(GO) run ./cmd/jobgate

# Regenerate the Table I rows that fit a laptop.
table:
	$(GO) run ./cmd/benchtable

# Run the sampling daemon locally (see cmd/weaksimd -h for the knobs).
serve:
	$(GO) run ./cmd/weaksimd -addr :8080

# Machine-readable benchmark snapshot: a quick row set with per-phase
# timings, peak nodes, and cache hit rates, written to BENCH_<timestamp>.json.
bench-json:
	$(GO) run ./cmd/benchtable -rows qft_16,qft_32,shor_33_2,jellium_2x2 -shots 100000 -json-out auto

clean:
	$(GO) clean ./...
