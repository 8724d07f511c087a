# The targets CI runs are the ones humans run; keep them in sync with
# .github/workflows/ci.yml.

GO ?= go

.PHONY: build test race fmt fmt-check vet lint bench bench-smoke bench-train bench-overlap bench-overlap-check bench-latency bench-latency-check bench-pipeline bench-pipeline-check bench-embtier bench-embtier-check bench-cluster bench-cluster-check bench-hotpath bench-hotpath-check fuzz-smoke serve-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

fmt:
	gofmt -l -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The full lint gate: gofmt, go vet, and the repo's own dmt-lint analyzer
# suite (internal/analysis: pendingwait, retainrelease, determinism,
# noretain) run as a vet tool. staticcheck and the shadow pass run too
# when installed; offline environments skip them (CI runs them in the
# advisory lint-extra job, where they are installed from the network).
lint: fmt-check vet
	$(GO) build -o bin/dmt-lint ./cmd/dmt-lint
	$(GO) vet -vettool=bin/dmt-lint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed; skipped"; fi
	@if command -v shadow >/dev/null 2>&1; then $(GO) vet -vettool=$$(command -v shadow) ./...; \
	else echo "lint: shadow not installed; skipped"; fi

bench:
	$(GO) test -run '^$$' -bench . -benchmem -timeout 60m .

# One iteration of the fast benchmarks: proves they compile and run.
# BenchmarkDistributedStep includes the compressed-wire (fp16/int8) and
# overlapped-schedule step variants, so the smoke run covers the quantized
# collectives and the async handle path too.
bench-smoke:
	$(GO) test -run '^$$' -bench '^(Benchmark(Serve|SPTT|TrainStep|Timeline)_|BenchmarkDistributedStep)' -benchtime 1x -timeout 20m .

# The distributed-training engine comparison: sequential vs rank-parallel
# vs overlapped, plus the compressed-wire variants.
bench-train:
	$(GO) test -run '^$$' -bench '^BenchmarkDistributedStep' -benchtime 5x -timeout 20m .

# Overlap comparison: blocking vs overlapped engines side by side. The
# overlapped rows should report lower exposed-ms/step; the fp16 pair at
# G=8 is the acceptance comparison.
bench-overlap:
	$(GO) test -run '^$$' -bench '^BenchmarkDistributedStep$$/^(rank-parallel|overlap)$$' -benchtime 5x -timeout 20m .

# CI gate behind the overlap claim: run the blocking and overlapped fp16
# step at G=8 and FAIL unless the overlapped row reports strictly lower
# exposed-ms/step — an overlap regression breaks the build, it doesn't
# just print.
bench-overlap-check:
	$(GO) test -run '^$$' -bench '^BenchmarkDistributedStep$$/^(rank-parallel|overlap)$$/^fp16$$/^G=8$$' -benchtime 3x -timeout 10m . > bench-overlap.out
	@cat bench-overlap.out
	@awk '/Step\/rank-parallel\/fp16/ { for (i = 2; i <= NF; i++) if ($$i == "exposed-ms/step") base = $$(i-1) } \
	     /Step\/overlap\/fp16/ { for (i = 2; i <= NF; i++) if ($$i == "exposed-ms/step") ov = $$(i-1) } \
	     END { if (base == "" || ov == "") { print "bench-overlap-check: exposed-ms/step metrics not found"; exit 1 } \
	           printf "exposed-ms/step: blocking %s vs overlapped %s\n", base, ov; \
	           if (ov + 0 >= base + 0) { print "bench-overlap-check: FAIL - overlap did not reduce exposed comm"; exit 1 } }' bench-overlap.out
	@rm -f bench-overlap.out

# Simulated-latency step variants: the same engines with the comm runtime
# driven by the netsim cost model; exposed/hidden metrics are modeled
# virtual-clock milliseconds (deterministic, wire-byte-driven).
bench-latency:
	$(GO) test -run '^$$' -bench '^BenchmarkDistributedStep/latency' -benchtime 3x -timeout 20m .

# CI gate behind the latency model — the measured Figure 13 acceptance
# assertions, run as a test: (a) the overlapped schedule models strictly
# less exposed comm than blocking, (b) the fp16 wire models strictly less
# exposed time than fp32 (wire bytes drive the delays), and the table is
# bit-for-bit deterministic.
bench-latency-check:
	$(GO) test -run '^TestFigure13Measured$$' -v ./internal/experiments

# The cross-step pipelining table (dmt-bench -exp pipeline): the overlapped
# vs pipelined schedules on the simulated A100 fabric at the wide-over-arch
# profile, where the gradient-bucket drain outlasts the SPTT backward
# window and the boundary actually costs exposed time.
bench-pipeline:
	$(GO) run ./cmd/dmt-bench -exp pipeline

# CI gate behind the cross-step schedule: (a) the measured-table acceptance
# test — pipelined exposed comm strictly below the overlapped baseline at
# G=8 for fp32 and fp16, cross-step bucket completion actually hidden, the
# trajectory schedule-invariant, the table deterministic — and (b) the
# rendered table byte-identical across runs and GOMAXPROCS settings.
bench-pipeline-check:
	$(GO) test -run '^TestPipelineMeasured$$' -v ./internal/experiments
	$(GO) run ./cmd/dmt-bench -exp pipeline > bench-pipeline-1.out
	GOMAXPROCS=2 $(GO) run ./cmd/dmt-bench -exp pipeline > bench-pipeline-2.out
	@cmp bench-pipeline-1.out bench-pipeline-2.out || { echo "bench-pipeline-check: FAIL - table differs across GOMAXPROCS"; exit 1; }
	@echo "bench-pipeline-check: table byte-identical across runs and GOMAXPROCS"
	@rm -f bench-pipeline-1.out bench-pipeline-2.out

# The disaggregated embedding tier's memory:compute sweep (dmt-bench -exp
# embtier): local tables vs 1/2/4 dedicated embedding-server ranks, hot-ID
# cache off and on.
bench-embtier:
	$(GO) run ./cmd/dmt-bench -exp embtier

# CI gate behind the embedding tier: every configuration follows one
# bitwise trajectory, the remote tier actually ships cross-host lookup
# bytes, and the write-back cache strictly reduces both lookup wire volume
# and modeled exposed lookup time vs cache-off.
bench-embtier-check:
	$(GO) test -run '^TestEmbTierCacheReducesExposedLookup$$' -v ./internal/experiments

# The cluster capacity-planning sweep (dmt-serve -cluster): open-loop
# SLO-class arrivals replayed through the discrete-event fleet simulator at
# growing replica counts.
bench-cluster:
	$(GO) run ./cmd/dmt-serve -cluster

# CI gates behind the simulator: (a) an added replica at a fixed queue-bound
# load strictly reduces the simulated p99, (b) the same profile renders a
# byte-identical capacity table on every run, and (c) a recorded trace
# replays to bit-identical simulator output across runs and GOMAXPROCS.
bench-cluster-check:
	$(GO) test -run '^(TestClusterCapacityDeterministic|TestClusterAddedReplicaReducesP99)$$' -v ./internal/experiments
	$(GO) test -run '^TestSimulatorDeterministicAcrossRunsAndProcs$$' -v ./internal/cluster

# Hot-path kernel benchmarks: the serial vs parallel tiled MatMul backends
# at over-arch shapes, and the fused vs unfused quantized codec with
# allocs/op (-benchmem) — the before/after numbers behind the README's
# "Hot-path kernels" section.
bench-hotpath:
	$(GO) test -run '^$$' -bench '^BenchmarkHotpath' -benchmem -timeout 20m ./internal/tensor ./internal/quant

# CI gates behind the raw-speed pass: (a) the parallel tiled backend must
# beat the serial kernel by >= 1.5x for MatMul and MatMulBT at over-arch
# shapes (skips below 2 procs — nothing to fan out over), (b) the fused
# codec must allocate strictly less per op than the unfused composition it
# replaced, with the pooled encode paths pinned at zero steady-state
# allocations, and (c) the pooled EmbeddingBag backward stays O(1) allocs.
# Gate (a) is a wall-clock ratio, so it builds only under the hotpath tag
# and runs here with -p 1, never inside the parallel `go test ./...`.
bench-hotpath-check:
	$(GO) test -tags hotpath -p 1 -run '^TestHotpathParallelMatMulSpeedup$$' -v ./internal/tensor
	$(GO) test -run '^(TestFusedCutsAllocs|TestPooledEncodeAllocs)$$' -v ./internal/quant
	$(GO) test -run '^TestEmbeddingBackwardAllocs$$' -v ./internal/nn

# Short native-fuzz runs over the wire codec, the collectives and the SIMD
# GEMM kernels against their pure-Go routines (go test allows one -fuzz
# target per invocation, hence the separate runs).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzFloat16RoundTrip$$' -fuzztime 10s ./internal/quant
	$(GO) test -run '^$$' -fuzz '^FuzzLinearQuantRoundTrip$$' -fuzztime 10s ./internal/quant
	$(GO) test -run '^$$' -fuzz '^FuzzFusedCodec$$' -fuzztime 10s ./internal/quant
	$(GO) test -run '^$$' -fuzz '^FuzzCollectiveInterleaving$$' -fuzztime 10s ./internal/comm
	$(GO) test -run '^$$' -fuzz '^FuzzKernelBitwise$$' -fuzztime 10s ./internal/tensor

serve-demo:
	$(GO) run ./cmd/dmt-serve -requests 8192 -concurrency 32
