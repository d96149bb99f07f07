# GPSA-Go — common tasks

GO ?= go
REV := $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)

.PHONY: all build test race lint lint-escape vet fmt bench-scale repro examples check torture chaos disktorture clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/actor ./internal/core ./internal/cluster ./internal/algorithms ./internal/xstream ./internal/vertexfile ./internal/crashtest ./internal/chaostest ./internal/metrics ./internal/serve

# gpsa-lint: the repository's own static analyzers (internal/lint) —
# actor discipline, mmap aliasing, determinism, context plumbing,
# durability error handling, //gpsa:noalloc hot-path allocation checks,
# and frame-switch exhaustiveness. Zero unsuppressed findings required;
# see DESIGN.md "Static invariants" for the rule catalogue and the
# //lint:<analyzer> <reason> suppression syntax.
lint:
	$(GO) run ./cmd/gpsa-lint ./...

# The compiler-backed escape gate on top of `lint`: for every package
# with //gpsa:noalloc pragmas, run `go build -gcflags='-m -m'` and fail
# on any heap allocation the compiler proves inside a marked hot-path
# function (cold failure paths and justified suppressions excepted).
lint-escape:
	$(GO) run ./cmd/gpsa-lint -escape ./...

# The full pre-merge gate: vet and gpsa-lint, the entire test suite under
# the race detector (includes the fault-injection recovery tests), a
# shuffled-order pass over the engine, actor, cluster and algorithms
# packages to catch inter-test state leaks (core's scan runs in all of
# them, and poison-on-reset and fault plans are process globals), the
# kill-torture harness against the real binary, plus the chaos smoke
# slices: one node kill + one corrupted
# frame, and the elastic-membership schedule (drain under load, mid-job
# join, permanent-death redistribution, kill mid-migration) on live
# 3-node clusters, plus the serving-layer smoke slice (submit, complete,
# cache hit, SIGTERM drain against the real gpsa-serve binary). The
# repository benchmark is its own module (benchmark/go.mod), which the
# root ./... patterns do not reach: it is vetted and tested here so an
# API change that breaks it fails this gate, not the benchmark run. The
# full randomized schedules are `make torture` and `make chaos` (nightly
# CI).
check:
	$(GO) vet ./...
	$(GO) -C benchmark vet ./...
	$(MAKE) lint
	$(GO) test -race ./...
	$(GO) test -race -count=1 ./internal/core
	$(GO) test -shuffle=on -count=1 ./internal/core ./internal/actor ./internal/cluster ./internal/algorithms
	$(GO) test -count=1 -run 'Torture|Interrupt|ExitCodes' ./internal/crashtest
	$(GO) test -count=1 -run 'TestChaosSmoke|TestChaosMigrationSmoke|TestChaosElastic|TestChaosCorruptFrameDetected' ./internal/chaostest
	$(GO) test -count=1 -run 'TestServeSmoke' ./internal/servetest
	$(GO) test -count=1 -run 'TestDiskSmoke|TestDiskReadFaultsTyped' ./internal/disktest
	$(GO) -C benchmark test ./...

# Kill-torture: run cmd/gpsa as a subprocess, SIGKILL it at >=20
# randomized supersteps/commit phases (including kills landing inside
# -resume runs), resume with -resume, and require final values
# bit-identical to an uninterrupted run; then the serving-layer torture:
# SIGKILL gpsa-serve with >=4 concurrent jobs in flight (twice — the
# second kill lands mid-resume), restart with -resume-jobs, and require
# every job bit-identical to an undisturbed schedule, plus the overload
# (429 shedding), SIGTERM drain, and deadline-budget scenarios. Skipped
# by `go test -short`.
torture:
	$(GO) test -count=1 -v -run 'Torture|Interrupt|ExitCodes' ./internal/crashtest
	$(GO) test -count=1 -v -timeout 600s -run 'TestServe' ./internal/servetest

# Hostile-disk torture: the full storage fault matrix from
# internal/disktest — every write-path disk.* site armed as a
# persistent storm against the real CSR writer and engine (the run must
# complete bit-identical to an undisturbed baseline or fail typed and
# recover to it once the disk heals), the read-side error taxonomy
# (EIO vs at-rest bit-rot), the gpsa-serve degraded-mode enter/exit
# cycle against the real binary, and the cluster-replica scrub/repair
# scenario. Writes the per-site outcome matrix to disktorture.json.
disktorture:
	GPSA_DISKTEST_REPORT=disktorture.json $(GO) test -count=1 -v -timeout 600s -run 'TestDisk' ./internal/disktest

# Network torture: the full seeded chaos schedule over a live 3-node
# in-process cluster — randomized node kills mid-dispatch and
# mid-barrier, one-way partitions healing after jitter, connection
# resets, torn and bit-flipped frames — every run required to end
# bit-identical to an undisturbed baseline with rollback/rejoin metrics
# asserted. Fixed seeds; see internal/chaostest.
chaos:
	GPSA_CHAOS=1 $(GO) test -count=1 -v -timeout 600s -run 'TestChaos' ./internal/chaostest

vet:
	$(GO) vet ./...
	gofmt -l .

# Out-of-core COST sweep (R-MAT ladder up to paper-scale shapes, core
# sweep vs single-threaded GraphChi/X-Stream references), one run per
# cell; writes COST_<rev>.json. Hours-scale at default shapes — see
# -shapes to trim.
bench-scale:
	$(GO) run ./cmd/gpsa-bench -exp scale -runs 1 -rev $(REV) -cost-json COST_$(REV).json

# Regenerate the paper's full evaluation (Table I, Figs 7-11,
# scalability) at default scales, each cell averaged over 3 runs; see
# EXPERIMENTS.md for recorded output. `gpsa-bench -graph <file>` runs
# the same three-system comparison on your own graph.
repro:
	$(GO) run ./cmd/gpsa-bench -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/pagerank-web
	$(GO) run ./examples/bfs-social
	$(GO) run ./examples/cc-components
	$(GO) run ./examples/fault-tolerance
	$(GO) run ./examples/distributed

clean:
	$(GO) clean ./...
