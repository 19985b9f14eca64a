# Development targets. `tier1` is the merge gate (see ROADMAP.md); `race`
# is the fuller pre-merge check and `race-short` its fast CI variant;
# `chaos` is the fault-injection sweep of DESIGN.md §10 (fixed seed;
# set CHAOS_SEED to explore other schedules); `chaos-fabric` is the
# fleet chaos pass of DESIGN.md §13–§14 — kill the coordinator
# mid-sweep and restart it over the journal, kill workers mid-sweep and
# mid-batch, and check slot accounting through worker death and
# shutdown: zero lost and zero double-merged points; `fabric-smoke`
# builds the real coordinator and server binaries, boots a
# three-process fleet, and diffs a distributed sweep against the single-node driver (DESIGN.md
# §12); `serve` boots the experiment-serving daemon; `bench` regenerates the paper's headline
# benchmarks; `bench-hotpath` compares the compiled fast engine against
# the reference interpreter (see BENCH_hotpath.json for recorded runs;
# BENCH_coalesce.json is the historical record of the run-coalescing
# mechanism, since deleted); `bench-parallel` measures the
# host-parallel engine against the serial driver on the same workloads
# (recorded in BENCH_parallel.json); `bench-snapshot` measures
# copy-on-write warm-started sweeps against fresh per-point prefixes
# (recorded in BENCH_snapshot.json); `bench-fabric` measures batched
# lease dispatch and worker-side warm-prefix reuse through a real
# coordinator + worker pair (recorded in BENCH_fabric.json);
# `bench-smoke` is the CI
# keep-the-benchmarks-compiling pass: one iteration of the hot-path
# benchmarks at short-mode scale, a smoke test rather than a measurement;
# `bench-e2e-smoke` runs the end-to-end benchmark harness (bench/e2e)
# once at smoke size: every workload through the real CLI, server and
# fleet binaries, each result checked against its golden hash (~25 s).

GO ?= go
SERVE_FLAGS ?= -cache .cascade-cache
CHAOS_SEED ?=

.PHONY: tier1 race race-short chaos chaos-fabric fabric-smoke serve bench bench-hotpath bench-parallel bench-snapshot bench-fabric bench-smoke bench-e2e-smoke fmt

tier1:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...

race:
	$(GO) test -race -timeout 90m ./...

race-short:
	$(GO) test -race -short ./...

chaos:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -run TestChaos -count=1 -v ./internal/server

chaos-fabric:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -run 'TestChaos|TestSlot' -count=1 -v ./internal/fabric

fabric-smoke:
	FABRIC_SMOKE=1 $(GO) test -run TestFabricSmoke -count=1 -v .

serve:
	$(GO) run ./cmd/cascade-server $(SERVE_FLAGS)

bench:
	$(GO) test -run NONE -bench 'BenchmarkFig2$$|BenchmarkFig6$$' -benchtime 1x -count 3 .

bench-hotpath:
	$(GO) test -run NONE -bench BenchmarkHotPath -benchtime 2x -count 3 .

bench-parallel:
	$(GO) test -run NONE -bench BenchmarkParallel -benchtime 3x -count 5 .

bench-snapshot:
	$(GO) test -run NONE -bench BenchmarkSnapshot -benchtime 3x -count 5 ./internal/experiments/

bench-fabric:
	$(GO) test -run NONE -bench BenchmarkPointDispatch -benchtime 20x -count 3 ./internal/fabric/
	$(GO) test -run NONE -bench BenchmarkWarmFleetSweep -benchtime 1x -count 5 ./internal/fabric/

bench-smoke:
	$(GO) test -run NONE -bench 'BenchmarkHotPathSequential|BenchmarkHotPathCascade' -benchtime 1x -short .
	$(GO) test -run NONE -bench BenchmarkSnapshotChunkSweep -benchtime 1x -short ./internal/experiments/

bench-e2e-smoke:
	cd bench && $(GO) test -count=1 ./e2e

fmt:
	gofmt -w .
