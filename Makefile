GO ?= go

.PHONY: all fmt vet staticcheck build test race race-full alloc-gate bench-go golden perfbench ci

all: build

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# staticcheck is not vendored; CI installs it with `go install`. Locally the
# target fails with instructions rather than silently passing.
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 || { \
		echo "staticcheck not found: go install honnef.co/go/tools/cmd/staticcheck@latest"; exit 1; }
	staticcheck ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race detector slows the simulations ~10×; -short skips the full
# figure reproductions (covered by `make test`) so the pass stays bounded.
race:
	$(GO) test -race -short -timeout 20m ./...

# The full race pass: every test, figure reproductions included. CI runs it
# as its own job; budget the better part of an hour locally.
race-full:
	$(GO) test -race -timeout 60m ./...

# alloc-gate pins the zero-allocation property of the per-packet data path
# and the event loop: the DAMN alloc/free fast path, dma_map/dma_unmap under
# every scheme, a full RX segment through the pooled skb path (single ring,
# four RSS rings, and with the multi-tenant capability gate installed), a
# full ARQ loss-recovery cycle (fast retransmit included), the capability
# check itself, the idle bypass busy-poll tick, a segment through the
# virtqueue harvest/repost cycle, the netperf generator's flow-control poll,
# a segment forwarded between two topology shards, memcached's
# request/response cycle under every scheme, and the engine's
# schedule/run cycle, periodic tick, ticker start/stop storm and topology
# epoch barrier must not touch the Go heap in steady state. Every gate
# counts each malloc over its whole loop and requires 0 (the memcached gate:
# equal counts for two runs whose windows differ by 10 ms). Runs in seconds;
# CI fails on any regression.
alloc-gate:
	$(GO) test -run 'ZeroAlloc|SteadyStateAllocs' -count=1 . ./internal/sim

# bench-go runs the go-test benchmarks: data-structure, engine and gated
# hot-path micro benchmarks (each gated path timed on its alloc-gate rig),
# one macro sub-benchmark per catalog figure and the serial/parallel
# full-suite macro. With perfbench it is the repository's host-side timing.
bench-go:
	$(GO) test -bench=. -benchmem -timeout 60m -run=^$$ .

# golden enforces the byte-identity contract: the stdout of the quick paper
# suite at -parallel 1, and of each figure outside it, must hash to the
# digests in cmd/damnbench/testdata/golden.sha256, and so must the -stats
# JSON each run writes (every machine's metrics snapshot), so a change that
# moves a count no figure prints fails here too. The figures outside the
# paper suite, the attack matrix included, run from a race-detector binary
# at -parallel 2, so the same pass checks that their output does not depend
# on the worker count and runs their self-checks under the race detector
# (the scaling figure fails on an off-core RX completion, the bypass figure
# on its acceptance gates, the chaos harness on a conservation audit). One
# goroutine drives a machine and its components hold no host locks, so that
# race binary is also the check that two jobs share no machine state. A
# change that moves any printed byte or metric fails here; one that means to
# must re-record the digests and say why.
GOLDEN_FIGS = scaling chaos recovery loss cluster tenants bypass attacks
golden:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/damnbench" ./cmd/damnbench; \
	$(GO) build -race -o "$$dir/damnbench-race" ./cmd/damnbench; \
	echo "damnbench -quick -parallel 1"; \
	"$$dir/damnbench" -quick -parallel 1 -stats "$$dir/all.json" >"$$dir/all.out"; \
	for f in $(GOLDEN_FIGS); do \
		echo "damnbench -race -quick -parallel 2 -exp $$f"; \
		"$$dir/damnbench-race" -quick -parallel 2 -exp $$f -stats "$$dir/$$f.json" >"$$dir/$$f.out"; \
	done; \
	cp cmd/damnbench/testdata/golden.sha256 "$$dir/"; \
	cd "$$dir" && sha256sum -c golden.sha256

# The repository benchmark's own tests (perfbench is a separate module): every
# job's digest at the reference seed must match perfbench/digests.json, and
# 1 vs 2 job workers must agree — so a host-side change that moves any
# simulated result fails here.
perfbench:
	cd perfbench && $(GO) test ./...

ci: fmt vet build alloc-gate race golden perfbench
