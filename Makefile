# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: all build vet test race verify benchmark-check ci-test bench-smoke shuffle fuzz-smoke \
	bench-threads experiments-quick ci-race scheduler batched mutation rv migrate fleet \
	fuzz cover bench bench-control experiments examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# What a change must pass before it goes in: the module builds, vets,
# is gofmt-clean and passes its tests (internal/guard's structural rules
# among them), and so does benchmark/.
verify: build vet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi
	$(GO) test ./...
	$(MAKE) benchmark-check

# benchmark/ is its own module and the referee of every performance
# claim: a change that breaks what it compiles against must fail here,
# not there. Its tests run five workloads at small scale against their
# output oracles, and the metric-spec check; a change that moves the
# trace counts or simulated cycles it reads must keep them green.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# CI's main job: verify, then the heavier recipes. (The static rules
# are internal/guard's tests, run by every `go test` below.)
ci-test: verify bench-smoke shuffle fuzz-smoke fuzz bench-threads experiments-quick examples

# The control plane's validate -> derive -> publish microbenchmarks,
# kept running with their allocations printed
# beside their ns (a share/revoke round's included); then a hundred
# steady-state migration hops, so every run prints a hop's allocations
# (the pins are TestSyncDomainAllocationPins, TestShareRevokeAllocations
# and TestMigrateHopAllocations); and a fleet node's machine coming up,
# so every run prints a machine's set-up cost (the footprint pins are
# TestNewPhysMemFootprint and TestFleetLiveHeap).
bench-smoke:
	$(GO) test -run '^$$' -bench 'SyncDomain|BuildDeviceFilter|CheckRange|ShareRevokeRound' -benchmem -benchtime 1x ./internal/backend ./internal/core
	$(GO) test -run '^$$' -bench MigrateHop -benchmem -benchtime 100x ./internal/fleet
	$(GO) test -run '^$$' -bench NewMachine -benchmem -benchtime 20x ./internal/hw

# Shuffled execution order keeps tests honest about hidden inter-test
# state; the seed is printed on failure for replay.
shuffle:
	$(GO) test -shuffle=on ./...

# Short fuzz smokes beyond the seed corpora the plain test run replays:
# the monitor API (every fuzz world carries the online checker as its
# oracle); the EPT's extent table against its per-page model, scoped
# replaces (what a resync splices in) among its operations; the
# interpreter's decoded-page cache and fast exit against the uncached
# fetch (random programs that store into their own code, with writes,
# DMA, scrubs, revocations, flushes, ring switches and injected faults
# between steps); the slot-array TLB against the map-backed TLB it
# replaced (that no index grows back beside the array is internal/guard's
# TestTLBHasNoMap); physical memory's page frames against a flat byte
# model with per-page versions (frames made only by writes, never by
# reads, scrubs or refused accesses). -fuzzminimizetime=0: the time goes
# to fuzzing, not to minimizing each new interesting input (up to 60 s
# by default, longer than a smoke runs).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzMonitorAPI -fuzztime=30s -fuzzminimizetime=0 ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzEPTExtents -fuzztime=15s -fuzzminimizetime=0 ./internal/hw
	$(GO) test -run='^$$' -fuzz=FuzzStepDifferential -fuzztime=15s -fuzzminimizetime=0 ./internal/hw
	$(GO) test -run='^$$' -fuzz=FuzzTLBOps -fuzztime=15s -fuzzminimizetime=0 ./internal/hw
	$(GO) test -run='^$$' -fuzz=FuzzPhysMem -fuzztime=15s -fuzzminimizetime=0 ./internal/hw

# internal/bench compares counts, simulated cycles and verdicts — never
# host time (that is benchmark/'s job) — so its tests must be green at
# any host thread count. Its worker pool runs separate worlds on
# separate goroutines; the race detector shows they share nothing.
bench-threads:
	for t in 1 2 4; do GOMAXPROCS=$$t $(GO) test -race -count=5 ./internal/bench || exit 1; done

# Every paper table and figure regenerates with all shape checks passing
# (the tool exits non-zero otherwise). Experiments run over a worker
# pool, which enforces exactly what a serial run does, and every
# experiment world carries the cycle-stamped tracer and checker.
experiments-quick:
	$(GO) run ./cmd/tyche-bench -quick -parallel 4 -out $${TMPDIR:-/tmp}/BENCH.json

# The whole module under the race detector: a world is one goroutine's,
# so what it catches is a goroutine that should not be there, or worlds
# that share state (the parallel bench harness). -short trims the
# heaviest sweeps.
ci-race: vet
	$(GO) test -race -short ./...

# The scheduler: management code driving a real monitor
# (internal/sched's tests, the oversubscription, determinism, kill,
# dispatch-error, reproducibility and migration ones among them), then
# the monitor's vCPU mechanism it calls, then the interactive demo.
# (C19's gates run in ci-test's pooled sweep.)
scheduler:
	$(GO) test ./internal/sched
	$(GO) test -run 'VCPU|Schedul|Timer|Yield|RunCores' ./internal/core ./internal/hw
	$(GO) run ./cmd/tyche-sim -cores 4 -domains 10

# The asynchronous batched ABI: ring registration, drain and teardown
# and coalesced shootdown rounds, from the core monitor and the libtyche
# guest-side ring API (C20's gates run in ci-test's pooled sweep); the
# -batched demo keeps the interactive path honest.
batched:
	$(GO) test -run 'Ring' ./internal/core ./internal/libtyche
	$(GO) run ./cmd/tyche-sim -batched

# The six mutation oracles — the only build tags there are. Each build
# carries one seeded bug; the online checker and check.Replay of the
# trace must flag it with the same verdict (rangebug's left-out core the
# stale-translation oracle too).
mutation:
	for tag in tracebug scrubbug ackbug drainbug migratebug rangebug; do \
		$(GO) test -tags $$tag -run MutationOracle ./internal/core || exit 1; \
	done

# Runtime verification: the trace, checker and rv packages (emit,
# engine.step and a steady-state merge allocating nothing are tests
# there), the online check against its replay on real workloads, the six mutation oracles and a 30 s fuzz smoke of the
# online check against Replay and of the engine against its allocating
# twin. The rv service on real worlds is C21 phase A, C23 and
# internal/rv's tests.
rv:
	$(GO) test ./internal/trace/... ./internal/rv
	$(GO) test -run '^TestOnlineCheckMatchesReplay$$' ./internal/core
	$(MAKE) mutation
	$(GO) test -run='^$$' -fuzz=FuzzTraceReplay -fuzztime=30s ./internal/trace/check

# The migration path — kept node-pair channels, per-node attestation
# sessions, the channel transport under them. A fleet runs its hops on
# one goroutine, and two channels sharing one agent's NIC take turns on
# it (ChannelsSharingOneNIC). Then one hop and one send with their
# allocations, for the record. A kept-channel hop taking 0
# handshakes is asserted by TestFleetMigrationChannelLifecycle (steadyHop
# requires 0 TPM quotes), not read off the benchmark line.
migrate:
	$(GO) test ./internal/fleet ./internal/dist ./internal/attest
	$(GO) test -run '^$$' -bench 'MigrateHop|Send' -benchmem ./internal/fleet ./internal/dist

# The simulated datacenter fleet. A fleet is one thread's object — every
# call, Serve, Migrate and FailNode among them, runs on its caller's
# goroutine — so it replays from its seed: TestServeReproducible (a kill
# mid-serving and a migration between two serves), the re-placement
# order after a node death (TestFailNodeReplacesDeterministically) and
# C23's whole Result must come out identical at 1, 2 and 4 host threads.
# Then the fleet tests, serving interleaved with migrations and the kill
# during serving among them. The -fleet demo keeps the interactive path
# honest.
# (C23's migration-abort, kill-churn and
# fleet-verification gates run in ci-test's pooled sweep.)
fleet:
	$(GO) test -run 'TestFleet' -v ./internal/fleet
	for t in 1 2 4; do GOMAXPROCS=$$t $(GO) test -count=5 -run 'TestServeReproducible|TestFailNodeReplacesDeterministically' ./internal/fleet || exit 1; done
	for t in 1 2 4; do GOMAXPROCS=$$t $(GO) test -count=5 -run 'TestResultsAreHostIndependent/C23' ./internal/bench || exit 1; done
	$(GO) test -run 'Migrate|Depart|Snapshot|Restore' ./internal/core ./internal/dist
	$(GO) run ./cmd/tyche-sim -fleet 4

# The byte strings that cross a trust boundary, fuzzed 15 s each:
# snapshot bytes into RestoreDomain, descriptors a guest writes into its
# ring, image manifests into the loader's decoder, digest bodies through
# the decoder and the remote verifier, and altered frames into a
# channel's open. As in fuzz-smoke, -fuzzminimizetime=0 spends the time
# fuzzing.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreDomain$$' -fuzztime 15s -fuzzminimizetime=0 ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRingDescriptor$$' -fuzztime 15s -fuzzminimizetime=0 ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzImageManifest$$' -fuzztime 15s -fuzzminimizetime=0 ./internal/image
	$(GO) test -run '^$$' -fuzz '^FuzzDigestDecode$$' -fuzztime 15s -fuzzminimizetime=0 ./internal/trace/check
	$(GO) test -run '^$$' -fuzz '^FuzzDistFrame$$' -fuzztime 15s -fuzzminimizetime=0 ./internal/dist

cover:
	$(GO) test -cover ./...

# Micro-benchmarks + every experiment as a testing.B sub-benchmark
# (BenchmarkExperiments).
bench:
	$(GO) test -bench=. -benchmem ./...

# The control plane's validate -> derive -> publish path, layer by layer.
bench-control:
	$(GO) test -run '^$$' -bench 'SyncDomain|BuildDeviceFilter|CheckRange|ShareRevokeRound' -benchmem ./internal/backend ./internal/core

# Regenerate every paper figure/claim table; exits non-zero if any
# shape check fails.
experiments:
	$(GO) run ./cmd/tyche-bench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/saas
	$(GO) run ./examples/nested_enclaves
	$(GO) run ./examples/driver_sandbox
	$(GO) run ./examples/attested_rdma

clean:
	$(GO) clean ./...
