GO ?= go

.PHONY: all ci fmt vet lint lint-golden build test test-short race chaos soak soak-short bench bench-smoke examples fuzz

all: vet lint build test race

# The aggregate pre-merge gate: everything `all` runs, ordered so the
# cheap fast-failing steps (fmt, build, vet, lint — including the
# whole-program plaintaint/keyscope/cttaint/conccheck analysis) come before the
# test suites, plus a -short -race pass over the full module, the
# benchmark's smoke run (real daemons, output checked against
# BENCHMARK.json), the compressed chaos soak that gates the
# query-lifecycle recovery contract, and a run of every example.
ci: fmt build vet lint test race test-short bench-smoke soak-short examples

# Fails if gofmt would rewrite any tracked Go file. Files under testdata/
# are analyzer inputs pinned by goldens, not code under the gate.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go' | grep -v '/testdata/')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Crypto-invariant static analysis (cmd/seclint): the package-mode
# analyzers (weakrand, subtlecmp, secretfmt, errdrop, rawexp) over every
# module package, then the whole-program analyzers
# (plaintaint, keyscope, cttaint, conccheck) over the combined call
# graph, gated on the audited exceptions in seclint.allow. Non-zero
# exit on any finding.
lint:
	$(GO) run ./cmd/seclint

# Fails if any analyzer's rendered messages drift from the pinned
# goldens under internal/seclint/testdata/golden/ — wording changes
# must be deliberate (regenerate with `go test ./internal/seclint/
# -run TestGoldenMessages -update` and review the diff).
lint-golden:
	$(GO) test -count=1 -run TestGoldenMessages ./internal/seclint

build:
	$(GO) build ./...

# Runs every program under examples/ to completion (`build` only compiles
# them); fails on the first non-zero exit. Their output is discarded,
# their errors are not.
examples:
	@for d in examples/*/; do \
		echo "$(GO) run ./$$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

test:
	$(GO) test ./...

# Fast race-checked sweep over the whole module (skips the expensive
# whole-module type-checking tests, which `test` already runs).
test-short:
	$(GO) test -short -race ./...

# The concurrency safety gate: the full module under the race detector
# — the mediation protocols, the session mux (including the
# >=32-interleaved-sessions stress test), the worker pool, the
# resilience orchestration and every other package; nothing
# concurrency-relevant can sit outside the sweep.
race:
	$(GO) test -race ./...

# The resilience gate (docs/RESILIENCE.md): every protocol under every
# fault class on the fixed seed — including per-session faults on a
# shared multiplexed link — the mid-protocol crash matrix and the
# timeout-attribution tests, race-checked and leak-checked. Override the
# fault schedule with CHAOS_SEED=<uint64> to explore other positions.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestSourceCrash|TestSilent|TestMediatorCrash' ./internal/mediation
	$(GO) test -race -count=1 ./internal/session

# The query-lifecycle recovery gate (docs/RESILIENCE.md): the full chaos
# soak — retry orchestration, per-peer circuit breakers, admission
# overload and graceful drain on a live TCP deployment under seeded
# faults and source kill/restart. Fails on any invariant violation and
# regenerates BENCH_soak.json. `soak-short` is the compressed variant
# wired into `ci`.
soak:
	$(GO) run ./cmd/medbench -table soak

soak-short:
	$(GO) test -count=1 -run TestSoakShort ./cmd/medbench

# Runs every Fuzz* target in the module for FUZZTIME each, one target at
# a time (`go test -fuzz` takes a single target per run); stops at the
# first failure, whose input lands under the package's testdata/fuzz/.
# Not part of `ci`: the seed corpora already run in `test`.
FUZZTIME ?= 10s
fuzz:
	@git grep -o '^func Fuzz[A-Za-z0-9_]*' -- '*_test.go' ':!*/testdata/*' | \
	while IFS=: read -r file decl; do \
		target=$${decl#func }; pkg=./$$(dirname $$file); \
		echo "$(GO) test -run '^$$target\$$' -fuzz '^$$target\$$' -fuzztime $(FUZZTIME) $$pkg"; \
		$(GO) test -run "^$$target\$$" -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done

# The performance benchmark declared in BENCHMARK.json: four workloads
# on the real daemons over TCP (bench/README.md).
bench:
	$(GO) run ./bench

# Tiny-relation run of the same benchmark on real daemons, asserting
# that its output carries exactly the metrics BENCHMARK.json declares.
# Guards the harness, not performance numbers.
bench-smoke:
	$(GO) test -count=1 ./bench
