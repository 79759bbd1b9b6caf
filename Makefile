# Local dev and CI invoke the same targets (.github/workflows/ci.yml fans
# the `ci` target's steps out across parallel lint / build-test / bench /
# smoke jobs), so a green `make ci` locally means a green pipeline.

GO ?= go

# Perf-regression gate knobs (see scripts/benchsummary): relative ns/op
# regression that fails bench-check, and a baseline floor below which
# benchmarks are informational only — sub-microsecond timings (currently
# just GateApplicationWarm at ~90ns) swing well past the threshold run to
# run on shared runners even at -benchtime 100ms with min-of-5 selection.
BENCH_CHECK_THRESHOLD ?= 0.25
BENCH_CHECK_MIN_NS ?= 1000
# Parallel-scaling gate: required workers1/workers4 speedup, pro rata K/4
# at K = min(NumCPU, 4) workers (1.25x at 2 CPUs; self-skips on 1 CPU).
# 0 disables it.
BENCH_CHECK_MIN_SCALING ?= 2.5

# Coverage gate: the combined internal/core + internal/dd statement coverage
# measured when the gate landed (PR 8); cover-check fails below this floor.
COVER_FLOOR ?= 85.0

# Paired A/B benchmark runs (scripts/ab.sh): the working tree against REF.
REF ?= HEAD
WORKLOAD ?= paper
PAIRS ?= 10
TRACE ?= 0

.PHONY: all build test race bench bench-smoke bench-check bench-baseline ab examples fmt fmt-check vet doc-lint atlas atlas-check simd-smoke cluster-smoke fuzz-smoke cover-check perfbench-check loc ci

all: build

## build: compile every package and command
build:
	$(GO) build ./...

## test: run the full test suite
test:
	$(GO) test ./...

## race: run the full test suite three times under the race detector (the
## CI gate), so a flaky test fails instead of passing on a lucky run
race:
	$(GO) test -race -count=3 ./...

## bench: one-iteration benchmark smoke pass (checks the harness, not perf)
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

## bench-smoke: dd + cnum + batch + session + approximation-pass benchmarks,
## the QASM front end (qasm.Parse and serve.CanonicalHash on a 400-gate
## Clifford+T and a 14-qubit QFT export), result and status decoding (a
## 256-shot, 16-qubit serve.ResultPayload, bare and in a cached status
## body) and the router round trip (submit
## -> terminal through simd-router and 2 backends, hit and miss, with
## p99-ns), captured as the raw go-test JSON
## stream (BENCH_dd.json) and parsed by scripts/benchsummary into the
## stable-schema BENCH_summary.json (benchmark -> ns/op, allocs/op, custom
## metrics) that bench-check gates on
bench-smoke:
	$(GO) test -run '^$$' -bench 'Gate|Session|Channel|Lookup' -benchtime 100ms -count 5 -benchmem -json \
		./internal/dd ./internal/cnum ./internal/sim ./internal/density > BENCH_dd.json
	$(GO) test -run '^$$' -bench 'Batch' -benchtime 1x -count 3 -benchmem -json \
		./internal/batch >> BENCH_dd.json
	$(GO) test -run '^$$' -bench 'Frontier' -benchtime 1x -count 3 -benchmem -json \
		./internal/benchtab >> BENCH_dd.json
	$(GO) test -run '^$$' -bench 'ApproximationPrimitive' -benchtime 100ms -count 5 -benchmem -json \
		. >> BENCH_dd.json
	$(GO) test -run '^$$' -bench 'QASMParse|CanonicalHash|ResultDecode|StatusDecode' -benchtime 100ms -count 5 -benchmem -json \
		./internal/qasm ./internal/serve >> BENCH_dd.json
	$(GO) test -run '^$$' -bench 'RouterRoundTrip' -benchtime 1s -count 3 -benchmem -json \
		./internal/cluster >> BENCH_dd.json
	$(GO) run ./scripts/benchsummary -in BENCH_dd.json -out BENCH_summary.json

## bench-check: the perf-regression gate — fail when a Gate/Batch/Session/
## ApproximationPrimitive/QASMParse/CanonicalHash/ResultDecode/StatusDecode/
## RouterRoundTrip
## benchmark's gated time (ns/op, or p99-ns for RouterRoundTrip/hit),
## allocs/op, or B/op regressed more than
## BENCH_CHECK_THRESHOLD against the committed bench_baseline.json
## (calibration-adjusted), when BatchRun stops scaling (workersK vs
## workers1 at K = min(NumCPU, 4); skipped on 1 CPU), when the ordering
## benchmark stops showing scored < identity peak nodes, or when the
## replace pass stops dominating delete on the pairs frontier. Runs
## bench-smoke first so the summary is fresh.
bench-check: bench-smoke
	$(GO) run ./scripts/benchsummary -check \
		-baseline bench_baseline.json -summary BENCH_summary.json \
		-threshold $(BENCH_CHECK_THRESHOLD) -min-ns $(BENCH_CHECK_MIN_NS) \
		-min-scaling $(BENCH_CHECK_MIN_SCALING)

## bench-baseline: refresh the committed perf baseline from a fresh
## bench-smoke run (commit the resulting bench_baseline.json)
bench-baseline: bench-smoke
	cp BENCH_summary.json bench_baseline.json
	@echo "bench-baseline: baseline refreshed; commit bench_baseline.json"

## ab: alternate PAIRS perfbench runs of WORKLOAD (20 s windows, seed 1;
## TRACE=1 compares the per-layer ledger) between REF, unpacked with git
## archive, and the working tree, then print each metric's medians,
## quartiles and the working tree's win count
ab:
	sh scripts/ab.sh $(REF) $(WORKLOAD) $(PAIRS) $(TRACE)

## examples: compile every example program (the CI gate keeping docs honest)
examples:
	$(GO) build ./examples/...

## fmt: rewrite all Go sources with gofmt
fmt:
	gofmt -w .

## fmt-check: fail if any file needs gofmt (the CI gate)
fmt-check:
	@files="$$(gofmt -l .)"; \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

## vet: static analysis
vet:
	$(GO) vet ./...

## doc-lint: fail when any package lacks a doc.go package comment, so
## `go doc` stays useful everywhere (the CI gate)
doc-lint:
	@fail=0; \
	for d in . $$(find internal -mindepth 1 -maxdepth 1 -type d | sort); do \
		if ! grep -qs '^// Package ' "$$d/doc.go"; then \
			echo "doc-lint: $$d/doc.go missing or lacks a '// Package ...' comment"; \
			fail=1; \
		fi; \
	done; \
	for f in cmd/*/main.go; do \
		if ! head -1 "$$f" | grep -q '^// Command '; then \
			echo "doc-lint: $$f lacks a '// Command ...' comment"; \
			fail=1; \
		fi; \
	done; \
	if [ "$$fail" -ne 0 ]; then exit 1; fi; \
	echo "doc-lint: all packages and commands documented"

## fuzz-smoke: run every native fuzz target concurrently under one shared
## wall-clock budget (FUZZ_SMOKE_BUDGET, default 10s) so CI keeps exercising
## the mutation engines without paying 10s per target serially
fuzz-smoke:
	sh scripts/fuzz_smoke.sh

## cover-check: measure combined internal/core + internal/dd +
## internal/dense + internal/density statement coverage into coverage.out
## and fail below the committed COVER_FLOOR
cover-check:
	$(GO) test -coverprofile=coverage.out ./internal/core ./internal/dd ./internal/dense ./internal/density
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	awk -v t="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { \
		if (t+0 < floor+0) { printf "cover-check: core+dd+dense+density coverage %.1f%% below floor %.1f%%\n", t, floor; exit 1 } \
		printf "cover-check: core+dd+dense+density coverage %.1f%% (floor %.1f%%)\n", t, floor }'

## atlas: regenerate the committed goldens of the experiment report —
## docs/REPORT.md (E3/E7, Table I without timing columns, E11, E6, E12),
## docs/ATLAS.md and internal/atlas/winners_gen.go (drives strategy=auto) —
## and BENCH_atlas.json (gitignored runtime artifact)
atlas:
	$(GO) run ./cmd/experiments -golden update -parallel 0

## atlas-check: regenerate the goldens in memory and fail naming each
## committed file that drifted (the CI gate keeping Table I, the frontier
## and strategy=auto honest against what the code measures)
atlas-check:
	$(GO) run ./cmd/experiments -golden check -parallel 0

## simd-smoke: build the simulation service, boot it, and run a QASM job
## end-to-end including a cache-hit resubmission (the CI gate)
simd-smoke:
	sh scripts/simd_smoke.sh

## cluster-smoke: boot a router + 2 backends, run a QASM job through the
## router, verify hash-affinity cache hits and aggregated cluster stats,
## kill -9 a fresh job's owner and recover the job on the survivor by
## resubmission, and drain gracefully on SIGTERM (the CI gate)
cluster-smoke:
	sh scripts/cluster_smoke.sh

## perfbench-check: vet and test the benchmark module (perfbench/ is its
## own Go module, so build/vet/race above never compile it, yet it imports
## this module's batch, sim and serve APIs)
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

## loc: print the non-test Go line count outside perfbench/ (the size
## figure simplicity changes report). testdata/ fixtures, which no build
## compiles, and dot-directories such as the git-ignored .bench_build/ are
## not counted.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './perfbench/*' -not -path '*/testdata/*' -not -path '*/.*' | xargs cat | wc -l

## ci: everything the pipeline runs, in order
ci: fmt-check vet doc-lint build examples race fuzz-smoke cover-check atlas-check simd-smoke cluster-smoke perfbench-check
