GO ?= go

.PHONY: all fmt vet staticcheck build test race race-full alloc-gate bench bench-go chaos recovery scaling loss topo tenants bypass perfbench ci

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
# and the engine's cancel-heavy ticker churn: the DAMN alloc/free fast path,
# dma_map/dma_unmap under every scheme, a full RX segment through the pooled
# skb path (with and without the multi-tenant capability gate installed), a
# full ARQ loss-recovery cycle (fast retransmit included), the capability
# check itself, a ticker start/stop storm, the idle bypass busy-poll tick, a
# segment through the virtqueue harvest/repost cycle and the netperf
# generator's flow-control poll must not touch the Go heap in steady state.
# Runs in seconds; CI fails on any regression.
alloc-gate:
	$(GO) test -run 'ZeroAlloc' -count=1 .

# bench regenerates BENCH_PR10.json: engine event-loop microbenchmarks
# (ns/op, allocs/op — the 0-alloc hot paths are regression-gated, the
# multi-tenant capability check included), the RSS scale-out grid (bypass
# columns included), the kernel-bypass figure with its acceptance gates, the
# tenants blast-radius macro (the scaling and containment gates are tests,
# run by `make scaling` and `make tenants`), the 4-machine topology
# wall-clock scaling leg (serial vs one-worker-per-machine, byte-compared,
# speedup-gated on multi-CPU hosts), plus the quick-suite wall clock at
# -parallel 1 vs the parallel leg with the speedup and a byte-identity
# check between the two runs. benchreport refuses to capture at gomaxprocs
# 1; on a single-CPU host this target oversubscribes to two timesliced Ps
# so the report still records a genuine two-worker leg.
bench:
	@p=$$(nproc); [ $$p -ge 2 ] || p=2; \
	set -x; $(GO) run ./cmd/benchreport -out BENCH_PR10.json -procs $$p -parallel $$p

# bench-go runs the full go-test benchmark tiers: data-structure micro
# benchmarks, engine micro benchmarks, one macro benchmark per paper figure,
# and the serial/parallel full-suite macro.
bench-go:
	$(GO) test -bench=. -benchmem -timeout 60m -run=^$$ .

# The chaos harness: workloads under deterministic fault injection, with
# conservation audits and seed-replay checks, under the race detector.
chaos:
	$(GO) test -race -short -timeout 10m -run Chaos ./...

# The device-recovery suite: the fault-domain supervisor package end to end,
# plus the recovery workload/figure and the unmap-failure conservation
# regression, all under the race detector.
recovery:
	$(GO) test -race -short -timeout 15m ./internal/recovery/...
	$(GO) test -race -short -timeout 15m -run 'Recovery|UnmapFailure' \
		./internal/workloads/... ./internal/experiments/...

# The RSS scale-out figure (quick mode) under the race detector, plus the
# scaling determinism tests: Gb/s must grow with simulated core count and
# ring placement must be identical across runs and -parallel settings.
scaling:
	$(GO) run -race ./cmd/damnbench -quick -exp scaling
	$(GO) test -race -timeout 10m -run 'TestScaling|TestNAPIRunsOnRingCore|TestRXPathZeroAllocMultiRing' \
		./internal/experiments/... ./internal/netstack/... .

# The loss-resilience suite: the ARQ transport's unit tests, the lossy-link
# workload and figure (goodput recovery, seed replay, serial-vs-parallel
# byte identity), the watchdog × retransmit × recovery interplay gate, and
# the retransmit-path allocation gate — all under the race detector.
loss:
	$(GO) run -race ./cmd/damnbench -quick -exp loss
	$(GO) test -race -timeout 15m -run 'TestArq|TestLoss|TestRetransmit' \
		./internal/netstack/... ./internal/workloads/... ./internal/experiments/... .

# The multi-machine topology suite under the race detector: the sharded
# conservative-parallel executor's serial-vs-parallel identity bars (cluster
# primitives, ring/incast/memcached workloads, the cluster figure), the
# cross-machine DAMN conservation audit, the fault plane on topologies, and
# the chaos schedule goldens that pin the Link wire-model refactor.
topo:
	$(GO) run -race ./cmd/damnbench -quick -exp cluster -topo-workers 4
	$(GO) test -race -timeout 15m -run 'TestCluster|TestRing|TestIncast|TestMemcachedCluster|TestChaosScheduleGolden|TestLink' \
		./internal/sim/... ./internal/device/... ./internal/topo/... \
		./internal/workloads/... ./internal/experiments/...

# The multi-tenant suite under the race detector: the tenants figure (quick
# mode), the capability table, the fair-share pacer and containment-ladder
# unit tests, the blast-radius acceptance gate and the tenancy-off
# byte-identity checks.
tenants:
	$(GO) run -race ./cmd/damnbench -quick -exp tenants
	$(GO) test -race -timeout 15m -run 'TestTenan|TestLadder|TestCapability|TestFairShare|TestCapCheck' \
		./internal/tenant/... ./internal/workloads/... ./internal/experiments/... .

# The kernel-bypass suite under the race detector: the bypass figure (quick
# mode) with its in-figure acceptance gates (bypass-raw beats iommu-off,
# bypass-prot within 10% of raw, idle busy-poll burn on both flavors, zero
# used-ring publish faults), the attack verdicts via attacksim -bypass, and
# the virtqueue/driver/determinism tests plus the two bypass allocation
# gates.
bypass:
	$(GO) run -race ./cmd/damnbench -quick -exp bypass
	$(GO) run -race ./cmd/attacksim -bypass > /dev/null
	$(GO) test -race -timeout 15m -run 'TestBypass|TestVirtqueue' \
		./internal/device/... ./internal/experiments/... .

# The repository benchmark's own tests (perfbench is a separate module): every
# job's digest at the reference seed must match perfbench/digests.json, and
# 1 vs 2 job and topology workers must agree — so a host-side change that
# moves any simulated result fails here.
perfbench:
	cd perfbench && $(GO) test ./...

ci: fmt vet build alloc-gate race chaos recovery scaling loss topo tenants bypass perfbench
