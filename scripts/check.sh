#!/bin/sh
# Standard verify entry point (`make check` runs this script): vet,
# build, test, and race-test the whole module, then the stress, soak,
# fuzz-seed, smoke and alloc-floor gates below. Run from the repository
# root.
set -eux

# gofmt is a failing gate: any unformatted file lists here and aborts.
unformatted=$(gofmt -l .)
[ -z "$unformatted" ] || { echo "gofmt needed: $unformatted" >&2; exit 1; }

go vet ./...
go build ./...
go test ./...
go test -race ./...

# Tier-1 at pinned parallelism: timing-sensitive suites must pass on a
# 1-CPU and a 2-CPU schedule whatever the host's core count. -count=1
# because the test cache does not key on GOMAXPROCS.
GOMAXPROCS=1 go test -count=1 ./...
GOMAXPROCS=2 go test -count=1 ./...

# Multi-producer ingestion stress, repeated under the race detector: one
# pass rarely covers the interleavings of concurrent SendBatch producers,
# a wire ingest committing offsets, and Stats/Checkpoint barriers.
go test -race -run TestParallelIngestStress -count 5 ./engine/

# Warm-standby failover chaos soak under the race detector: repeated
# kill -> promote -> re-seed cycles over one continuous stream, requiring
# an element-exact delivery stream and one epoch bump per promotion.
SOAKFAILOVER_CYCLES=${SOAKFAILOVER_CYCLES:-5} \
  go test -race -run 'TestFailoverSoak|TestStandbyFailoverChaos' -count 1 ./server/

# Fuzz targets over their checked-in seed corpus: wire-format framing,
# the serving handshake front door, and the tiered join-state snapshot
# decoder (torn cold segments, corrupted bytes).
go test -run Fuzz ./engine/... ./server/... ./exec/...

# Checkpoint round-trip smoke: run a sharded workload writing periodic
# snapshots, then restore from the final snapshot and resume (a no-op
# resume at end-of-feed still exercises open -> parse -> install -> run).
ckpt=$(mktemp -u)
go run ./cmd/punctrun -scenario auction -n 300 -parallel \
  -checkpoint "$ckpt" -checkpoint-every 500 > /dev/null
go run ./cmd/punctrun -scenario auction -n 300 -parallel \
  -checkpoint "$ckpt" -restore | grep '^restore: resuming' > /dev/null
rm -f "$ckpt"

# Allocation floors for the hot path (testing.AllocsPerRun guards): the
# steady-state probe must stay ~alloc-free, a chained-purge cycle within
# its scratch budget, the cold-tier probe at parity with the all-hot
# probe, and a §5.1 punctuation-purging auction cycle may allocate only
# its emitted elements; frame decoding keeps its per-frame bound.
go test -run 'TestSteadyStateProbeAllocs|TestChainedPurgeAllocs|TestColdTierProbeAllocs|TestPunctPathAllocs' -count 1 ./exec/...
go test -run 'TestWireReaderReadAllocs' -count 1 ./engine/...

# Shared-tree fan-out alloc floor: delivering one output batch to extra
# subscribers (callback or passive) must not allocate per batch — sharing
# is O(subscribers) pointer work, never O(subscribers) copies.
go test -run 'TestFanOutDeliveryAllocs' -count 1 ./engine/

# The end-to-end benchmark is a module of its own (perfbench/go.mod), so
# the root `go test ./...` skips it: vet it and run its smoke, output-
# oracle, bounded-state and negative tests here.
go -C perfbench vet ./...
go -C perfbench test ./...
