# Standard verify entry point: `make check` runs scripts/check.sh, which
# holds everything CI expects to pass (run the script directly where
# make is unavailable). The other targets run single steps of it.

GO ?= go

.PHONY: check vet build test race racestress soakfailover fuzzseed bench benchfull benchskew benchserving benchmultiquery fmt fmtcheck

check:
	sh scripts/check.sh

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole module must stay race-clean: the partitioned worker pools
# drive exec replicas concurrently, and everything else rides along.
race:
	$(GO) test -race ./...

# Multi-producer ingestion stress, repeated under the race detector: one
# pass rarely covers the interleavings of concurrent SendBatch producers,
# a wire ingest committing offsets, and Stats/Checkpoint barriers.
racestress:
	$(GO) test -race -run TestParallelIngestStress -count 5 ./engine/

# Warm-standby failover chaos soak under the race detector: repeated
# kill -> promote -> re-seed cycles over one continuous stream, requiring
# an element-exact delivery stream and one epoch bump per promotion.
# SOAKFAILOVER_CYCLES raises the round count (default 5 here).
SOAKFAILOVER_CYCLES ?= 5
soakfailover:
	SOAKFAILOVER_CYCLES=$(SOAKFAILOVER_CYCLES) $(GO) test -race -run 'TestFailoverSoak|TestStandbyFailoverChaos' -count 1 ./server/

# Run the fuzz targets over their checked-in seed corpus: wire-format
# (truncated frames, oversized lengths, unknown streams), the serving
# handshake (bad magic, bad role, absurd name lengths), and the tiered
# join-state snapshot decoder (torn cold segments, corrupted bytes).
# `go test -fuzz` explores further; the seed set is the regression gate.
fuzzseed:
	$(GO) test -run Fuzz ./engine/... ./server/... ./exec/...

bench:
	$(GO) test -bench . -benchtime 1x -run xxx ./...

# Full hot-path benchmark pass (-benchmem, 2s per benchmark) and refresh
# of the recorded trajectory in BENCH_hotpath.json.
benchfull:
	BENCHTIME=2s scripts/bench.sh

# Adaptive state-tiering acceptance run only: cold-tier probe parity over
# long-lived state and the skew-split state bound, recorded (with
# per-name medians across repeated samples) into BENCH_tiering.json.
benchskew:
	ONLY=tiering scripts/bench.sh

# Serving-layer benchmark pass only: sustained throughput plus the
# warm-standby failover RTO row, recorded into BENCH_serving.json.
benchserving:
	ONLY=serving scripts/bench.sh

fmt:
	gofmt -l .

# Failing formatting gate: `make check` aborts if any file needs gofmt.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Shared-subplan multi-query benchmark pass only: view ladders per
# overlap shape, recorded (with per-name medians across repeated
# samples) into BENCH_multiquery.json.
benchmultiquery:
	ONLY=multiquery scripts/bench.sh
