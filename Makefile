# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: all build vet test race mutation rv epoch drain migrate fuzz cover bench bench-control experiments examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The seven mutation oracles — the only build tags there are. Each build
# carries one seeded bug; the online checker and check.Replay of the
# trace must flag it with the same verdict (rangebug's left-out core the
# stale-translation oracle too).
mutation:
	for tag in tracebug epochbug scrubbug ackbug drainbug migratebug rangebug; do \
		$(GO) test -tags $$tag -run MutationOracle ./internal/core || exit 1; \
	done

# Runtime verification: the trace, checker and rv packages under the
# race detector (emit, engine.step and a steady-state merge allocating
# nothing are tests there), merges racing four emitters ten times at 1,
# 2 and 4 host threads, the online check against its replay on real
# workloads, the seven mutation oracles and a 30 s fuzz smoke of the
# online check against Replay and of the engine against its allocating
# twin. The rv service on real worlds is C21 phase A, C23 and
# internal/rv's tests.
rv:
	$(GO) test -race ./internal/trace/... ./internal/rv
	for threads in 1 2 4; do \
		GOMAXPROCS=$$threads $(GO) test -race -count=10 -run '^TestMergeDuringConcurrentEmit$$' ./internal/trace/check || exit 1; \
	done
	$(GO) test -race -run '^TestOnlineCheckMatchesReplay$$' ./internal/core
	$(MAKE) mutation
	$(GO) test -run='^$$' -fuzz=FuzzTraceReplay -fuzztime=30s ./internal/trace/check

# The linearizability storm and the pin-slot exhaustion test under the
# race detector, at 1, 2 and 4 host threads.
epoch:
	for threads in 1 2 4; do \
		GOMAXPROCS=$$threads $(GO) test -race -count=20 -run 'TestEpochLinearizableRevokeStorm|TestEpochPinSlotsExhausted' ./internal/core || exit 1; \
	done

# The drain round against everything that races it — readers on other
# cores, revoke and kill storms, filter resyncs, running interpreters and
# trace emitters — under the race detector, at 1, 2 and 4 host threads.
drain:
	for threads in 1 2 4; do \
		GOMAXPROCS=$$threads $(GO) test -race -count=1 -run 'Drain|Ring|Epoch|Revoke|ResyncNeverPublishesPartialFilter' ./internal/core ./internal/rv || exit 1; \
		GOMAXPROCS=$$threads $(GO) test -race -count 5 -run 'RunObservesPublishedWrites|FlushDuringRun|RunPublishesCounters' ./internal/hw || exit 1; \
		GOMAXPROCS=$$threads $(GO) test -race -count 20 -run 'EventsDuringEmit|BackendContextStable' ./internal/trace ./internal/backend || exit 1; \
	done

# The migration path — kept node-pair channels, per-node attestation
# sessions, the channel transport under them — under the race detector,
# ten times at 1, 2 and 4 host threads; then one hop and one send with
# their allocations, for the record. A kept-channel hop taking 0
# handshakes is asserted by TestFleetMigrationChannelLifecycle (steadyHop
# requires 0 TPM quotes), not read off the benchmark line.
migrate:
	for threads in 1 2 4; do \
		GOMAXPROCS=$$threads $(GO) test -race -count=10 ./internal/fleet ./internal/dist ./internal/attest || exit 1; \
	done
	$(GO) test -run '^$$' -bench 'MigrateHop|Send' -benchmem ./internal/fleet ./internal/dist

# The byte strings that cross a trust boundary, fuzzed 15 s each:
# snapshot bytes into RestoreDomain, descriptors a guest writes into its
# ring, image manifests into the loader's decoder, digest bodies through
# the decoder and the remote verifier, and altered frames into a
# channel's open.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreDomain$$' -fuzztime 15s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRingDescriptor$$' -fuzztime 15s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzImageManifest$$' -fuzztime 15s ./internal/image
	$(GO) test -run '^$$' -fuzz '^FuzzDigestDecode$$' -fuzztime 15s ./internal/trace/check
	$(GO) test -run '^$$' -fuzz '^FuzzDistFrame$$' -fuzztime 15s ./internal/dist

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
