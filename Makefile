GO ?= go
CORPUS ?= wikitables

.PHONY: build vet lint test race race-cluster check bench-smoke bench-json bench-kernels trace-smoke segment-churn-smoke netcluster-smoke perfbench-vet

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet: staticcheck when it is on PATH (CI installs
# it), vet alone otherwise — the build must not fetch tools implicitly.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; go vet only"; \
	fi

test:
	$(GO) test ./...

# The observability layer is all lock-free atomics and RWMutex-guarded
# caches; race keeps it honest.
race:
	$(GO) test -race ./...

# Focused race pass over the scatter-gather layer: the cluster router's
# concurrent fan-out, hedging and cache invalidation, plus the LRU it
# shares. Fast enough to run on every change to either package.
race-cluster:
	$(GO) test -race ./internal/cluster/... ./internal/cache/...

check: lint race

# One-iteration pass over every microbenchmark (HNSW build, k-means, vector
# kernels, ...): catches benchmarks that no longer compile or crash, without
# the cost of real measurement.
bench-smoke:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./internal/...
	$(GO) run ./cmd/semdisco-bench -corpus $(CORPUS) -scale 0.05 -dim 96 -train=false -shards 2 -batch -churn -json /dev/null

# Kernel micro-benchmarks: the batched DotBatch/L2SqBatch kernels against
# repeated single-query Dot calls, plus the bounded top-k selection. The
# transcript lands in benchrun_kernels.txt so kernel regressions show up in
# review diffs.
bench-kernels:
	$(GO) test -run=^$$ -bench 'Dot|L2Sq|TopK|FullSort' -benchtime=2s ./internal/vec/ | tee benchrun_kernels.txt

# Segment-store churn smoke: race-checked delete/update/add churn against
# the engine and segment store, pinning that a churned, compacted index
# ranks bit-identically to one built fresh from the surviving corpus and
# that searches never block or degrade while a compaction swaps segments.
segment-churn-smoke:
	$(GO) test -race -run 'TestEngineChurnEquivalence|TestEngineSearchNonBlockingDuringCompaction|TestClusterDeleteUpdate' .
	$(GO) test -race -run 'TestSegmentStoreChurnEquivalence|TestSegmentStoreSearchDuringCompaction|TestSegmentStoreConcurrentChurn' ./internal/core/

# Networked-cluster smoke: replica sets of shard servers on loopback HTTP
# behind a replicated coordinator, race-checked end to end. Pins the wire
# protocol and replica failover (hung replica, whole set down, malformed
# responses), the bit-identical-to-single-engine merge over the wire, a
# replica killed mid-run leaving every query answered, and the coordinator
# mode of the HTTP API — including a search answered while a replicated
# write hangs on a wedged replica.
netcluster-smoke:
	$(GO) test -race ./internal/netcluster/
	$(GO) test -race -run 'TestNetShard|TestNetCluster' .
	$(GO) test -race -run 'TestCoordinatorServer' ./internal/httpapi/

# Compile and vet the benchmark harness (its own module, resolving semdisco
# to this checkout through a replace directive, so it works offline): a
# public-API change that breaks the harness fails here, not in the
# benchmark run.
perfbench-vet:
	GOWORK=off GOFLAGS=-mod=mod $(GO) -C perfbench vet ./...

# End-to-end tracing smoke: serve a freshly generated corpus as a 4-shard
# hedged cluster with every trace retained, run one search, and assert the
# span tree comes back from /v1/debug/traces/{id} and its exemplar shows
# up on the OpenMetrics scrape. Needs curl and jq.
trace-smoke:
	sh ./scripts/trace-smoke.sh

# Machine-readable benchmark report (build time, latency quantiles,
# MAP/NDCG, per-method cost-model numbers) for the selected corpus profile,
# written to BENCH_$(CORPUS).json at the repo root and echoed to stdout.
# Scaled down and untrained to keep the run short; raise -scale for
# paper-grade numbers.
bench-json:
	$(GO) run ./cmd/semdisco-bench -corpus $(CORPUS) -scale 0.15 -dim 192 -train=false -cost -batch -churn -json BENCH_$(CORPUS).json
