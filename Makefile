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
# warm-started sweeps that load one captured prefix per point against
# fresh per-point prefixes (BENCH_snapshot.json is the historical record
# of the copy-on-write snapshots it measured before captures replaced
# them, since deleted); `bench-fabric` measures batched
# lease dispatch and worker-side warm-prefix reuse through a real
# coordinator + worker pair (recorded in BENCH_fabric.json);
# `bench-smoke` is the CI
# keep-the-benchmarks-compiling pass: one iteration of the hot-path and
# warm-start benchmarks at short-mode scale, a smoke test rather than a
# measurement; `fuzz` runs every fuzz target for 60 s each (nightly CI;
# the seed corpora alone run in every `go test`);
# `bench-e2e-smoke` runs the end-to-end benchmark harness (bench/e2e)
# once at smoke size: every workload through the real CLI, server and
# fleet binaries, each result checked against its golden hash (~25 s);
# `results` regenerates every results/*.txt (and its progress .log)
# with the exact command that produced it, `cascade-sim -exp E` at
# paper scale and the default -n; `results-check` re-derives the
# SHA-256 of every experiment's `cascade-sim -exp E -json -q` at paper
# scale and the default -n and compares it with its pin in
# results/golden.json (nightly CI; each takes 15-20 minutes on 2 cores).

GO ?= go
SERVE_FLAGS ?= -cache .cascade-cache
CHAOS_SEED ?=

RESULTS = ablations amdahl conflicts fig2 fig3 fig4 fig5 fig6 fig7 gallery table1

.PHONY: tier1 race race-short chaos chaos-fabric fabric-smoke serve bench bench-hotpath bench-parallel bench-snapshot bench-fabric bench-smoke bench-e2e-smoke fuzz results results-check fmt

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

fuzz:
	$(GO) test -run NONE -fuzz '^FuzzShipBatch$$' -fuzztime 60s ./internal/fabric/
	$(GO) test -run NONE -fuzz '^FuzzLoopSpecEngines$$' -fuzztime 60s ./internal/cascade/
	$(GO) test -run NONE -fuzz '^FuzzPointRequest$$' -fuzztime 60s ./internal/server/
	$(GO) test -run NONE -fuzz '^FuzzJobRequest$$' -fuzztime 60s ./internal/server/
	$(GO) test -run NONE -fuzz '^FuzzJournalOpen$$' -fuzztime 60s ./internal/fabric/journal/

results:
	for e in $(RESULTS); do \
		$(GO) run ./cmd/cascade-sim -exp $$e > results/$$e.txt 2> results/$$e.log || exit 1; \
	done

results-check:
	@fail=0; \
	for e in $$(sed -n 's/^ *"\([a-z0-9]*\)": .*/\1/p' results/golden.json); do \
		want=$$(sed -n "s/^ *\"$$e\": \"\([0-9a-f]*\)\".*/\1/p" results/golden.json); \
		got=$$($(GO) run ./cmd/cascade-sim -exp $$e -json -q | sha256sum | cut -d' ' -f1); \
		if [ "$$got" = "$$want" ]; then echo "ok   $$e"; else echo "FAIL $$e: $$got, pinned $$want"; fail=1; fi; \
	done; \
	exit $$fail

fmt:
	gofmt -w .
