# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: all build vet test race cover bench bench-control experiments examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Micro-benchmarks + every experiment as testing.B benches.
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
