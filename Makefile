# Development targets. `tier1` is the merge gate (see ROADMAP.md), plus a
# vet of the separate bench/ module, which `go build ./...` skips; `race`
# is the fuller pre-merge check and `race-short` its fast CI variant;
# `chaos` is the fault-injection sweep of DESIGN.md §10 (fixed seed;
# set CHAOS_SEED to explore other schedules); `chaos-fabric` is the
# fleet chaos pass of DESIGN.md §13–§14 — kill the coordinator
# mid-sweep and restart it over the journal, kill workers mid-sweep and
# mid-lease, and check slot accounting through worker death and
# shutdown: zero lost and zero double-merged points; `fabric-smoke`
# builds the real coordinator and server binaries, boots a
# three-process fleet, and diffs a distributed sweep against the single-node driver (DESIGN.md
# §12); `serve` boots the experiment-serving daemon; `bench` regenerates the paper's headline
# benchmarks; `bench-hotpath` compares the compiled fast engine against
# the reference interpreter (see BENCH_hotpath.json for recorded runs;
# BENCH_coalesce.json is the historical record of the run-coalescing
# mechanism, since deleted, and BENCH_parallel.json that of the
# host-parallel simulation engine, also deleted); `bench-snapshot` measures
# warm-started sweeps that load one captured prefix per point against
# fresh per-point prefixes (BENCH_snapshot.json is the historical record
# of the copy-on-write snapshots it measured before captures replaced
# them, since deleted); `bench-fabric` measures the per-point lease
# dispatch floor and a warmsweep through a real coordinator + worker
# pair (recorded in BENCH_fabric.json);
# `bench-smoke` is the CI
# keep-the-benchmarks-compiling pass: one iteration of the hot-path and
# warm-start benchmarks at short-mode scale, a smoke test rather than a
# measurement; `fuzz` runs every fuzz target for 60 s each, seven in all,
# from loop specs across engines and equivalent cache captures to a
# coordinator recovered over a damaged journal (nightly CI; the seed
# corpora alone run in every `go test`);
# `bench-e2e-smoke` runs the end-to-end benchmark harness (bench/e2e)
# once at smoke size: every workload through the real CLI, server and
# fleet binaries, each result checked against its golden hash (~25 s);
# `bench-ab BASE=<rev> W=<workload>[,<workload>...]|all [N=<pairs>]` runs
# alternating pairs of `bench/run.sh -workload W`, a `git archive` of BASE
# against this tree, and prints every pair's wall_s, cpu_s and setup_s
# with each side's median, quartiles and the change's win count, one
# workload after another (`all`: every workload in BENCHMARK.json;
# scripts/bench-ab.sh; a measurement of minutes, in no CI job);
# `examples` runs every program under examples/ with `go run` (nightly
# CI; about 50 s on 2 vCPUs): they are the API-level drivers outside
# cascade-sim, and quickstart and spmv exit nonzero when the cascaded
# run diverges bit for bit from the sequential one;
# `results` regenerates every results/*.txt (and its progress .log)
# with the exact command that produced it, `cascade-sim -exp E` at
# paper scale and the default -n; `results-check` re-derives the
# SHA-256 of every experiment's `cascade-sim -exp E -json -q` at paper
# scale and the default -n and compares it with its pin in
# results/golden.json (nightly CI; results-check takes about 7 minutes
# on 2 vCPUs);
# `pgo` rewrites the profile-guided-optimization profiles that plain
# `go build` picks up for the two simulating binaries
# (cmd/cascade-sim/default.pgo and cmd/cascade-server/default.pgo, one
# merged CPU profile of three `cascade-sim -cpuprofile` runs each of
# fig2, fig6 and warmsweep at scale 0.05, since one run's profile varies
# enough to move a rebuilt binary's CPU time by several percent;
# regenerate after hot-path changes; ~30 s).

GO ?= go
SERVE_FLAGS ?= -cache .cascade-cache
CHAOS_SEED ?=

EXAMPLES = chunksweep future pic quickstart spmv
RESULTS = ablations amdahl conflicts fig2 fig3 fig4 fig5 fig6 fig7 gallery table1
PGO_EXPS = fig2 fig6 warmsweep

.PHONY: tier1 race race-short chaos chaos-fabric fabric-smoke serve bench bench-hotpath bench-snapshot bench-fabric bench-smoke bench-e2e-smoke bench-ab fuzz examples results results-check pgo fmt

tier1:
	$(GO) build ./...
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
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

bench-ab:
	bash scripts/bench-ab.sh -base $(BASE) -workload $(W) $(if $(N),-n $(N))

fuzz:
	$(GO) test -run NONE -fuzz '^FuzzPointReply$$' -fuzztime 60s ./internal/fabric/
	$(GO) test -run NONE -fuzz '^FuzzLoopSpecEngines$$' -fuzztime 60s ./internal/cascade/
	$(GO) test -run NONE -fuzz '^FuzzCaptureEquivalence$$' -fuzztime 60s ./internal/cache/
	$(GO) test -run NONE -fuzz '^FuzzPointRequest$$' -fuzztime 60s ./internal/server/
	$(GO) test -run NONE -fuzz '^FuzzJobRequest$$' -fuzztime 60s ./internal/server/
	$(GO) test -run NONE -fuzz '^FuzzJournalOpen$$' -fuzztime 60s ./internal/fabric/journal/
	$(GO) test -run NONE -fuzz '^FuzzCoordinatorRecovery$$' -fuzztime 60s ./internal/fabric/

examples:
	for e in $(EXAMPLES); do \
		echo "== examples/$$e"; $(GO) run ./examples/$$e || exit 1; \
	done

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

pgo:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -pgo=off -o "$$dir/cascade-sim" ./cmd/cascade-sim && \
	for e in $(PGO_EXPS); do for r in 1 2 3; do \
		"$$dir/cascade-sim" -exp $$e -scale 0.05 -json -q -cpuprofile "$$dir/$$e.$$r.pprof" > /dev/null || exit 1; \
	done; done && \
	$(GO) tool pprof -proto -output cmd/cascade-sim/default.pgo "$$dir"/*.pprof && \
	cp cmd/cascade-sim/default.pgo cmd/cascade-server/default.pgo

fmt:
	gofmt -w .
