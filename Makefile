GO ?= go

.PHONY: check vet lint fmt-check build test race benchsmoke benchcmp scale-smoke baseline-smoke fuzz-smoke conformance bench bench-e2e bench-claim fmt

## check: the pre-PR gate. Run this before sending any change for review.
## CI (.github/workflows/ci.yml) runs the same gates, one named step each.
## No gate runs twice: `test` already covers the lint gate, the analyzers'
## fixtures, the live-transport smoke and the conformance suite, so the
## `lint` and `conformance` aliases below are not prerequisites.
check: vet fmt-check build test race benchsmoke benchcmp scale-smoke baseline-smoke fuzz-smoke
	@echo "check: all gates passed"

vet:
	$(GO) vet ./...

## lint: the repo's own analyzers alone — walltime, detmap, deliverretain,
## scratchalias, arenaescape, rngdraw — over every package of the module,
## plus their fixtures. A convenience alias: these
## are ordinary tests under ./internal/lint/ and `make test` runs them. See
## DESIGN.md "Determinism & lifetime invariants".
lint:
	$(GO) test ./internal/lint/...

## fmt-check: fails (listing the offenders) if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: the full tree under the race detector (kept affordable with
## -count=1; the heavy evaluation benchmarks are excluded by -run).
race:
	$(GO) test -race -count=1 ./...

## benchsmoke: one iteration of the serial/parallel Monte-Carlo benchmark
## pair — verifies the parallel path produces the same empirical rate and
## that the benchmarks still compile and run.
benchsmoke:
	$(GO) test -run '^$$' -bench 'MonteCarlo' -benchtime 1x -benchmem .

## benchcmp: the allocation-regression gate. Runs the alloc-sensitive
## benchmarks (FDSEpoch, RadioBroadcast, Codec, CodecEncodeAppend — the
## reused-buffer encode every transport runs, pinned at 0 allocs and so 0
## B/op — and the epoch benchmark of every flat detector: Flood, Gossip,
## SWIM, QueryResponse and AllPairs, whose steady state allocates nothing
## but a lower layer's occasional pool block) and fails if any allocs/op
## or B/op figure regresses more than 10% against the committed baseline
## (bench_baseline.json); ns/op deltas print as info lines but never gate
## (wall-clock is machine-dependent). Bytes are what BENCHMARK.json gates
## (alloc_mb, 2 %) and what a host pays in memory; counts are the proxy that
## catches a new per-message allocation early, and may rise when one large
## block becomes several small objects that add up to less. When a change
## lowers a figure, tighten the baseline in the same PR so the gate keeps
## biting.
## The scale benchmarks (FDSEpoch10k, ShardedEpoch, and the
## FDSEpochParallel serial-vs-parallel pair) run in a second invocation at
## -benchtime 1x: one iteration is seconds of simulation, and their
## allocation counts are deterministic at fixed seed regardless of
## iteration count. The per-layer micro-benchmarks live in the packages that
## own the code (internal/sim: heap push/pop, run fan-out, and one epoch of
## 600 hosts' batched boundary and round-end callbacks; internal/radio:
## broadcast fan-out vs density; internal/transport: one datagram through a
## 160-port mesh; internal/daemon: one Poll + AdvanceTo of a daemon with
## nothing to do; internal/wire: a digest of 10, 100 and 1,000 IDs decoded by
## a receiver that does not read the list; internal/shard: one pop + one push
## on the bucket queue with 10^5 deliveries in flight, beside the heap it
## replaced; internal/cluster: one warm epoch of View snapshots and no-op
## mutations; internal/intercluster: one warm epoch of a three-cluster chain
## flooding one new report) and run as a third invocation; the pooled steady
## state of the first three, the idle step, the unread digest, the shard queue,
## the View epoch and the report epoch allocate nothing — the digest's ns/op is also the same at every length — and the
## mesh copies a broadcast's payload exactly once (352 B/op, not once per
## port), and the gate holds them there. All three invocations feed one
## benchcmp run.
benchcmp:
	{ $(GO) test -run '^$$' -bench 'BenchmarkFDSEpoch$$|BenchmarkRadioBroadcast$$|BenchmarkCodec$$|BenchmarkCodecEncodeAppend$$|BenchmarkFloodEpoch$$|BenchmarkGossipEpoch$$|BenchmarkSWIMEpoch$$|BenchmarkQueryResponseEpoch$$|BenchmarkAllPairsEpoch$$' \
		-benchtime 20x -benchmem . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkFDSEpoch10k$$|BenchmarkShardedEpoch$$|BenchmarkFDSEpochParallel' \
		-benchtime 1x -benchmem . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkPushPop$$|BenchmarkRunFanout$$|BenchmarkBatchedPhases$$|BenchmarkBroadcast$$|BenchmarkChanMeshBroadcast$$|BenchmarkDaemonIdleStep$$|BenchmarkDecodeDigestUnread$$|BenchmarkShardQueue$$|BenchmarkViewEpoch$$|BenchmarkReportEpoch$$' \
		-benchtime 10000x -benchmem ./internal/sim ./internal/radio ./internal/transport ./internal/daemon ./internal/wire ./internal/shard ./internal/cluster ./internal/intercluster ; } | $(GO) run ./cmd/benchcmp -baseline bench_baseline.json

## scale-smoke: the sharded engine's cross-partition determinism gate at a
## scale the unit tests don't reach: a 10,000-host crash wave, run with 1
## shard and again with 4 shards x 2 workers, must print bit-identical trace
## and state hashes and the same number of busy windows (280 on this field:
## the queue's minTime is exact). See EXPERIMENTS.md "Sharded kernel".
scale-smoke:
	$(GO) build -o bin/fdsim ./cmd/fdsim
	@a="$$(bin/fdsim -shards 1 -nodes 10000 -field 2000 -crashes 25 -crash-epoch 1 -epochs 3 -seed 42 | grep -E 'hash:|busy windows:')"; \
	b="$$(bin/fdsim -shards 4 -shard-workers 2 -nodes 10000 -field 2000 -crashes 25 -crash-epoch 1 -epochs 3 -seed 42 | grep -E 'hash:|busy windows:')"; \
	echo "$$a"; \
	if [ "$$a" != "$$b" ]; then echo "scale-smoke: HASH MISMATCH between -shards 1 and -shards 4:"; echo "$$b"; exit 1; fi; \
	echo "scale-smoke: 1-shard and 4-shard hashes identical"

## baseline-smoke: the head-to-head matrix's determinism and behaviour gate.
## A tiny all-detector sweep (every stack x every disruption scenario, 2
## trials per cell) must print the committed "matrix hash:" below with 1
## worker and with 4 workers. Moving MATRIX_HASH is a deliberate re-pin: do
## it only for a change meant to alter some detector's behaviour, and say so
## in CHANGES.md. See EXPERIMENTS.md "Head-to-head detector matrix".
MATRIX_HASH := 6f3c164ce9656a34
baseline-smoke:
	$(GO) build -o bin/fdsfigs ./cmd/fdsfigs
	@a="$$(bin/fdsfigs -fig I -matrix-trials 2 -seed 42 -workers 1 | grep 'matrix hash:')"; \
	b="$$(bin/fdsfigs -fig I -matrix-trials 2 -seed 42 -workers 4 | grep 'matrix hash:')"; \
	echo "$$a"; \
	if [ "$$a" != "$$b" ]; then echo "baseline-smoke: HASH MISMATCH between -workers 1 and -workers 4:"; echo "$$b"; exit 1; fi; \
	if [ "$$a" != "matrix hash: $(MATRIX_HASH)" ]; then echo "baseline-smoke: matrix hash moved from the committed $(MATRIX_HASH)"; exit 1; fi; \
	echo "baseline-smoke: 1-worker and 4-worker matrix hashes equal the committed $(MATRIX_HASH)"

## fuzz-smoke: a short native-fuzz pass over the wire codec's two targets
## (FuzzDecode: Decode vs DecodeInto differential on hostile bytes;
## FuzzRoundTrip: decode -> encode fixed point). The committed corpus under
## internal/wire/testdata/fuzz/ always runs as plain seeds in `make test`;
## this target additionally mutates for 10s per target to probe new inputs.
fuzz-smoke:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzRoundTrip$$' -fuzztime 10s

## conformance: the differential suite (simulated radio vs. the daemon's
## LinkTransport over the deterministic mesh fabric: bit-identical traces,
## wire bytes, states, energy) and the transport-fault tests alone, verbose.
## A convenience alias: `make test` runs them.
conformance:
	$(GO) test ./internal/conformance/ -count=1 -v

## bench: the full evaluation harness (slow; regenerates every figure).
bench:
	$(GO) test -bench=. -benchmem .

## bench-e2e: the end-to-end benchmark BENCHMARK.json declares — six
## workloads, one JSON document per run. See bench/README.md.
bench-e2e:
	$(GO) run ./bench

## bench-claim: the evidence a change owes when it touches protocol traffic,
## the reception path or allocation — all six workloads, three repetitions
## each, on seed 1 and again on held-out seed 2 (~2 min). Run it on the parent
## commit and on the change and compare. A traffic change (what fds,
## intercluster, membership or cluster send, or when): wall_s, alloc_mb,
## completeness, false_suspicion_pairs, radio.tx.failure-report and the two
## intercluster.report_tx_* figures. A reception-path change (node.Host.Deliver,
## radio.receive, LinkTransport.Inject and what they call): wall_s, alloc_mb,
## peak_rss_mb and, in the traced pass, sim.ns_per_event,
## {fds,cluster}.handle_s, radio.send_s, transport.broadcast_s and
## daemon.poll_s. An allocation change (a pool, arena, interner or table):
## alloc_mb and peak_rss_mb, with wall_s and setup_s as the no-regression
## check. For the last two, events, fingerprint, energy_per_host_epoch and
## every radio.tx.* / radio.rx.* count must be the parent's. Not part of
## `check`: it gates nothing by itself, a cost that is a property of the seed
## cannot be bounded in CI.
bench-claim:
	$(GO) run ./bench -reps 3 -seed 1
	$(GO) run ./bench -reps 3 -seed 2

fmt:
	gofmt -l -w .
