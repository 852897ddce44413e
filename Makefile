GO ?= go

.PHONY: build test race bench e2e e2e-compare obs-guard ingest-guard kernel-guard overload-guard crash replica-crash fuzz-smoke ci

## build: compile every package and the aimbench binary
build:
	$(GO) build ./...

## test: run the full test suite
test:
	$(GO) test ./...

## race: race-detect the concurrent scan/merge paths and the tiered main
race:
	$(GO) test -race ./internal/core/... ./internal/query/... ./internal/columnmap/...

## bench: fused shared-scan batch microbenchmark (single vs naive vs fused)
bench:
	$(GO) test -bench BenchmarkSharedScanBatch -benchmem -run '^$$' ./internal/query/

## e2e: the repository benchmark (BENCHMARK.json) — builds aimserver, runs the four e2ebench workloads end to end over loopback TCP and checks their outputs
e2e:
	bash e2ebench/run.sh

## e2e-compare: compare two recorded e2ebench result sets, e.g. make e2e-compare A=benchmarks/results/pr12/parent B=benchmarks/results/pr12/change (paths relative to the repository root, or absolute)
e2e-compare:
	$(GO) run -C e2ebench . -compare $(abspath $(A)) $(abspath $(B))

## obs-guard: check the metrics layer keeps scan-round overhead within 3%
obs-guard:
	AIM_OBS_GUARD=1 $(GO) test -run TestMetricsOverheadGuard -v ./internal/query/

## ingest-guard: check batched ingest over TCP is no slower than per-event
ingest-guard:
	AIM_INGEST_GUARD=1 $(GO) test -run TestIngestBatchGuard -v ./internal/bench/

## kernel-guard: check scan compares stay closure-free, the grouped scan stays within 4x a global SUM, and split-phase apply beats eager
kernel-guard:
	AIM_KERNEL_GUARD=1 $(GO) test -run TestKernelGuard -v ./internal/bench/

## overload-guard: overload drill — drive an admission-controlled node at 2x capacity and saturation; fails on silent event loss, delta past the hard watermark, missing typed sheds, or no recovery
overload-guard:
	AIM_OVERLOAD_GUARD=1 $(GO) test -run TestOverloadGuard -v ./internal/bench/

## crash: crash-injection campaign — kill aimserver at 100 random points, verify every recovery
crash:
	AIM_CRASH_KILLS=100 $(GO) test -run TestCrashRecoveryRandomKillPoints -v -timeout 30m ./internal/crashharness/

## replica-crash: failover campaign — kill the primary 50 times under live ingest, verify the promoted follower record for record
replica-crash:
	AIM_REPL_KILLS=50 $(GO) test -run TestReplicaFailoverKillCampaign -v -timeout 30m ./internal/crashharness/

## fuzz-smoke: 10s of fuzzing per durability decoder (archive frames, checkpoint files, event codec), per compressed-chunk kernel family and per socket-facing decoder (query codec, netproto frames and batch bodies)
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzOpenSegment -fuzztime 10s ./internal/archive/
	$(GO) test -run '^$$' -fuzz FuzzReadFile -fuzztime 10s ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 10s ./internal/event/
	$(GO) test -run '^$$' -fuzz FuzzChunkKernels -fuzztime 10s ./internal/vec/
	$(GO) test -run '^$$' -fuzz FuzzDecodeQuery -fuzztime 10s ./internal/query/
	$(GO) test -run '^$$' -fuzz FuzzDecodePartial -fuzztime 10s ./internal/query/
# The netproto corpora seed 16 KiB bodies (a 256-event batch); capping
# minimization keeps the 10 s spent mutating rather than shrinking them.
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime 10s -fuzzminimizetime 1s ./internal/netproto/
	$(GO) test -run '^$$' -fuzz FuzzDecodeEventBatch -fuzztime 10s -fuzzminimizetime 1s ./internal/netproto/
	$(GO) test -run '^$$' -fuzz FuzzDecodeReplBatch -fuzztime 10s -fuzzminimizetime 1s ./internal/netproto/

## ci: full gate — vet, build, race-detect the whole tree, the e2ebench module (which the root ./... does not reach; its TestQuick runs the benchmark end to end), the obs/ingest/kernel/overload ratio guards, fuzz + crash smoke. Benchmark numbers are not gated here: compare e2ebench result sets with make e2e-compare
ci:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) vet -C e2ebench ./...
	$(GO) test -C e2ebench ./...
	AIM_OBS_GUARD=1 $(GO) test -run TestMetricsOverheadGuard ./internal/query/
	AIM_INGEST_GUARD=1 $(GO) test -run TestIngestBatchGuard ./internal/bench/
	AIM_KERNEL_GUARD=1 $(GO) test -run TestKernelGuard ./internal/bench/
	AIM_OVERLOAD_GUARD=1 $(GO) test -run TestOverloadGuard ./internal/bench/
	$(MAKE) fuzz-smoke
	$(MAKE) crash
	$(MAKE) replica-crash
