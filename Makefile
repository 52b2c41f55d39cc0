GO ?= go
NPROC ?= $(shell nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)

.PHONY: build test vet race bench fleet-bench chaos-smoke mine-smoke fuzz-smoke verdictbench-check fleet-demo ci serve

build:
	$(GO) build ./...

# Tier-1 verification (see ROADMAP.md).
test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The campaign runner and the budgeted enumeration are concurrent code:
# every PR must pass the race detector, not just the plain suite.
race:
	$(GO) test -race ./...

# Time the co-heavy candidate enumeration (the bare walk and the checking
# layer, allocations and GC pauses per candidate), check that enabling the
# obs counters stays within noise of the nil-sink path, hold the walk, the
# compiled cat evaluator and one search over the whole litmus corpus under
# their allocation ceilings, and record the result (with the machine's
# core count) in BENCH_enumerate.json.
bench:
	GOMAXPROCS=$(NPROC) BENCH_ENUM_OUT=$(CURDIR)/BENCH_enumerate.json $(GO) test -run 'TestBenchEnumerateJSON|TestObsOverheadSmoke|TestCheckAllocsCeiling|TestEnumAllocsCeiling|TestSearchCorpusAllocsCeiling' -count=1 -v .

# The fleet acceptance tests under the race detector: a 500-test batch
# through herd-gw while one backend is killed mid-batch and another runs
# 500ms slow with a seeded 25% 5xx burst — once as a buffered POST
# /v1/batch, and once as an NDJSON stream
# (TestChaosStreamingBatchSurvivesFaults), where every index must still
# receive exactly one frame. Both formats run the gateway's one batch
# engine. Bounded well under 2 minutes.
chaos-smoke:
	$(GO) test -race -run 'TestChaos' -count=1 -v -timeout 150s ./internal/fleet/

# Stream a mixed warm/cold corpus through herd-gw at 1 and 3 in-process
# nodes and record verdicts/sec (with cache-hit counts) in
# BENCH_fleet.json. The nodes share the runner's cores, so read the
# scaling against the recorded core count. Bounded well under a minute.
fleet-bench:
	GOMAXPROCS=$(NPROC) BENCH_FLEET_OUT=$(CURDIR)/BENCH_fleet.json $(GO) test -run 'TestBenchFleetJSON' -count=1 -v -timeout 300s ./internal/fleet/

# The differential-mining acceptance test under the race detector: a
# fixed-seed campaign sweeping 500+ generated tests across the smoke pair
# table with zero disagreements, a restart that resumes entirely from the
# memo journal, and the planted-bug minimization check. Records the
# mining throughput in BENCH_mine.json. Bounded well under 30 seconds.
mine-smoke:
	BENCH_MINE_OUT=$(CURDIR)/BENCH_mine.json $(GO) test -race -run 'TestMineSmoke|TestMinimize|TestMinerEmitsWitness' -count=1 -v -timeout 120s ./internal/mine/

# Short native fuzz runs, about 10s each, of the two decoders every
# request meets: the NDJSON frame decoder every gateway batch goes through
# (FuzzDecoder: torn and garbled streams, seeded from
# internal/wire/testdata/fuzz/FuzzDecoder) and the /v1/run body decoder
# (FuzzRunRequestDecoder).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecoder$$' -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzRunRequestDecoder$$' -fuzztime 10s ./internal/serve/

# The end-to-end benchmark (verdictbench/, declared in BENCHMARK.json) is
# its own Go module, so `go test ./...` never reaches it. Run its tests,
# then a short coherence-batch run: the bench checks every verdict against
# the cat interpreter, and the target fails unless the result line says
# "correct":true. Takes about half a minute.
verdictbench-check:
	cd verdictbench && $(GO) test ./...
	@out=$$(bash verdictbench/run.sh --workload coherence-batch --seed 1 --seconds 3 --trace 0) && \
		echo "$$out" && echo "$$out" | tail -n 1 | grep -q '"correct":true'

# A local 2-node fleet behind herd-gw, for poking at failover by hand.
fleet-demo: build
	./scripts/fleet_demo.sh

ci: vet test race chaos-smoke mine-smoke fuzz-smoke verdictbench-check

# The litmus-simulation service (cmd/herdd): HTTP verdicts with a
# content-addressed cache. See the "herdd" section of README.md.
serve:
	$(GO) run ./cmd/herdd
