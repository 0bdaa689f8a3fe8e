GO ?= go

.PHONY: all ci vet lint lint-json lint-sarif lint-golden build test test-short race chaos soak soak-short bench bench-smoke

all: vet lint build test race

# The aggregate pre-merge gate: everything `all` runs, ordered so the
# cheap fast-failing steps (build, vet, lint — including the
# whole-program plaintaint/keyscope/cttaint/conccheck analysis) come before the
# test suites, plus a -short -race pass over the full module, the
# benchmark's smoke run (real daemons, output checked against
# BENCHMARK.json), and the compressed chaos soak that gates the
# query-lifecycle recovery contract.
ci: build vet lint test race test-short bench-smoke soak-short

vet:
	$(GO) vet ./...

# Crypto-invariant static analysis (cmd/seclint): the package-mode
# analyzers (weakrand, subtlecmp, secretfmt, errdrop, rawexp, rawrecv)
# over every module package, then the whole-program analyzers
# (plaintaint, keyscope, cttaint, conccheck) over the combined call
# graph, gated on the audited exceptions in seclint.allow. Non-zero
# exit on any finding.
lint:
	$(GO) run ./cmd/seclint

# Machine-readable findings for tooling; same gate, JSON array output.
lint-json:
	$(GO) run ./cmd/seclint -json

# SARIF 2.1.0 log for code-scanning dashboards; same gate.
lint-sarif:
	$(GO) run ./cmd/seclint -sarif

# Fails if any analyzer's rendered messages drift from the pinned
# goldens under internal/seclint/testdata/golden/ — wording changes
# must be deliberate (regenerate with `go test ./internal/seclint/
# -run TestGoldenMessages -update` and review the diff).
lint-golden:
	$(GO) test -count=1 -run TestGoldenMessages ./internal/seclint

build:
	$(GO) build ./...

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

# The performance benchmark declared in BENCHMARK.json: four workloads
# on the real daemons over TCP (bench/README.md).
bench:
	$(GO) run ./bench

# Tiny-relation run of the same benchmark on real daemons, asserting
# that its output carries exactly the metrics BENCHMARK.json declares.
# Guards the harness, not performance numbers.
bench-smoke:
	$(GO) test -count=1 ./bench
