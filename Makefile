# HEF reproduction — common tasks.

GO ?= go

.PHONY: all build vet lint test test-short bench-test chaos corrupt dist-chaos fuzz bench bench-json bench-gate metrics-smoke hefd-chaos hefd-smoke figures tables hash ablate clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint enforces gofmt formatting, the error-handling contract (no panic()
# in non-test library code outside Must*-prefixed functions) and the
# one-owner rule for the shared sweep flags (only internal/sweepcli
# declares them).
lint: vet
	test -z "$$(gofmt -l .)"
	sh scripts/nopanic.sh
	sh scripts/sweepflags.sh

# internal/experiments exceeds the default 10m per-package limit under -race.
test: vet
	$(GO) test -race -timeout 40m ./...

test-short:
	$(GO) test -short ./...

# bench-test runs the benchmark module's own tests (its goldens and trace
# tests). cmd/hefbench has its own go.mod, so ./... from the root skips it.
bench-test:
	cd cmd/hefbench && $(GO) test ./...

# chaos runs the seeded fault-injection harness for the sweep loop under
# RunSweep: first-attempt task panics, mid-run kills by SIGTERM and by the
# tasks themselves, and checkpoint/resume byte-equivalence. CHAOS_SEED
# overrides the seed; CHAOS_ARTIFACT_DIR keeps the checkpoints and reports
# for post-mortem (CI uploads them on failure).
chaos:
	$(GO) test ./internal/sched/ -race -count=1 -run 'Chaos|Drain' -v -timeout 15m

# corrupt runs the seeded corruption matrix against the durable artifacts:
# bit flips, truncations, and garbage appends in the memo store plus torn
# checkpoint primaries, each followed by an interrupted-then-resumed sweep
# that must salvage, quarantine, and reproduce the baseline report byte for
# byte. CORRUPT_SEED overrides the damage plan; CORRUPT_ARTIFACT_DIR keeps
# the damaged stores and quarantine sidecars (CI uploads them on failure).
corrupt:
	$(GO) test ./internal/doctor/ -race -count=1 -run 'Corruption' -v -timeout 10m

# dist-chaos runs the distributed-sweep chaos harness under the race
# detector: seeded worker kills mid-range, a network partition that outlives
# its lease, and coordinator kill -9 restarts from the journal — the merged
# report must come out byte-identical to an uninterrupted single-process run
# with zero lost and zero double-counted tasks. DIST_CHAOS_SEED reseeds the
# fault plan; DIST_CHAOS_ARTIFACT_DIR keeps the journal and both checkpoints
# for post-mortem (CI uploads them on failure). It then runs the binary-level
# two-worker sweep twenty times: every worker must stop, and the coordinator
# exit, once the sweep is done.
dist-chaos:
	$(GO) test ./internal/dist/ -race -count=1 -run 'DistChaos' -v -timeout 10m
	$(GO) test ./cmd/hefsweep -run TestEndToEnd -count=20 -timeout 5m

# fuzz gives each native fuzz target a short smoke budget (10s each);
# CI runs this on every push, longer campaigns run the same targets with
# a bigger -fuzztime.
fuzz:
	$(GO) test ./internal/hid/ -run TestNone -fuzz FuzzBuilderBuild -fuzztime 10s
	$(GO) test ./internal/hid/ -run TestNone -fuzz FuzzParse -fuzztime 10s
	$(GO) test ./internal/translator/ -run TestNone -fuzz FuzzTranslate -fuzztime 10s
	$(GO) test ./internal/memo/ -run TestNone -fuzz FuzzFingerprint -fuzztime 10s
	$(GO) test ./internal/hef/ -run TestNone -fuzz FuzzTranslationKey -fuzztime 10s
	$(GO) test ./internal/store/ -run TestNone -fuzz FuzzStoreLoad -fuzztime 10s
	$(GO) test ./internal/store/ -run TestNone -fuzz FuzzSaveRotateLoadFallback -fuzztime 10s
	$(GO) test ./internal/store/ -run TestNone -fuzz FuzzLogOpen -fuzztime 10s
	$(GO) test ./internal/sched/ -run TestNone -fuzz FuzzCheckpointLoad -fuzztime 10s
	$(GO) test ./internal/dist/ -run TestNone -fuzz FuzzDistProtocol -fuzztime 10s

# One benchmark per paper table and figure (plus ablations).
bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark snapshots (the BENCH_*.json series).
# BENCH_1: the µop-histogram microbenchmark. BENCH_2: the evaluation
# pipeline — simulator throughput, the search at 1, 2, 4 and 8 workers,
# and the memoized offline phase — as a go-test JSON event stream.
# BENCH_3: the telemetry overhead pair — the full offline phase with the
# process-wide instruments uninstalled ("off", the default) vs installed
# ("on"); the paired TestTelemetryOverhead gate (HEF_OVERHEAD_CHECK=1)
# asserts the delta stays within the 2% budget. BENCH_4: the benchsnap
# snapshot — simulator and offline-phase hot paths with allocs/op and
# retired Minstr/s as first-class JSON fields; the committed copy is the
# baseline the bench-gate target (and CI perf-smoke) measures regressions
# against, so refresh it (on the reference machine) whenever a change
# legitimately moves throughput.
bench-json:
	$(GO) run ./cmd/uopshist -bench murmur -json > BENCH_1.json
	$(GO) test -json -run TestNone -bench 'BenchmarkSimulatorThroughput|BenchmarkSearchParallel|BenchmarkOptimizeOperator$$' \
		-benchtime 1x -count=1 ./internal/uarch/ ./internal/hef/ ./internal/core/ > BENCH_2.json
	$(GO) test -json -run TestNone -bench BenchmarkOptimizeOperatorTelemetry \
		-benchtime 1x -count=1 ./internal/core/ > BENCH_3.json
	$(GO) run ./cmd/benchsnap -out BENCH_4.json

# bench-gate re-measures the BENCH_4 benchmarks into a scratch file and
# fails when any loses more than 10% of the committed baseline's Minstr/s.
bench-gate:
	$(GO) run ./cmd/benchsnap -out /tmp/BENCH_4.fresh.json -check BENCH_4.json

# hefd-chaos runs the daemon's seeded load/chaos harness under the race
# detector: thousands of concurrent submissions against a bounded queue
# (zero lost accepted jobs), mixed-tenant storms with quotas and breakers
# live, drain-under-load leak checks, the kill -9 / SIGTERM recovery tests
# that assert byte-identical reports across restarts, and the retention
# suite — WAL compaction killed at every byte budget (surviving reports
# stay byte-identical, tombstoned jobs never resurrect) and repeated
# sweep/restart campaigns whose data dir stays bounded.
hefd-chaos:
	$(GO) test ./internal/hefd/ ./cmd/hefd/ -race -count=1 -run 'Chaos|Load|Recovery|Drain|KillDashNine|SIGTERM' -v -timeout 15m

# hefd-smoke drives a live hefd daemon from the outside with curl: a
# baseline run records a job's report bytes, a burst of concurrent jobs
# completes while /readyz and the /metrics job gauges are scraped, SIGTERM
# drains with exit 0, and a kill -9'd run restarted on the same data dir
# serves a report byte-identical to the baseline. It then exercises the
# lifecycle features live: -retain-count compaction (expired 404s, WAL
# shrinks, retained report byte-identical across another kill -9), API-key
# auth with a SIGHUP rotation, and a dry quota bucket surviving a kill -9
# restart. Requires curl.
hefd-smoke:
	sh scripts/hefd_smoke.sh

# metrics-smoke drives the live-telemetry stack end to end: an instrumented
# ssbbench sweep scraped mid-run (monotone progress series, /status, a
# SIGTERM drain observable as /healthz 503 + a final heartbeat), then a
# hefopt batch proving the search-layer series move. Requires curl.
metrics-smoke:
	sh scripts/metrics_smoke.sh

# Regenerate the paper's evaluation artifacts.
figures:
	$(GO) run ./cmd/ssbbench -all

tables:
	$(GO) run ./cmd/ssbbench -table 3
	$(GO) run ./cmd/ssbbench -table 4
	$(GO) run ./cmd/ssbbench -table 5

hash:
	$(GO) run ./cmd/uopshist

ablate:
	$(GO) run ./cmd/uopshist -ablate
	$(GO) run ./cmd/uopshist -width

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
