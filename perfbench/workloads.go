package main

import (
	"punctsafe/engine"
	"punctsafe/query"
	"punctsafe/stream"
)

// workloadSpec fixes everything a workload's runs share: the query, how
// it is deployed, the generator, the closed-loop feed size, and the
// open-loop rate ladder with its latency limit.
type workloadSpec struct {
	name string
	why  string
	// served workloads go through server.New and the client library over
	// a unix socket; the others embed the runtime and feed it through
	// IngestWireResume, the server's own ingest entry point.
	served bool
	// views is how many Share-equal registrations of the query there
	// are; the first is the one read.
	views      int
	partitions int
	query      func() (*query.CJQ, *stream.SchemeSet)
	gen        func(seed int64, em *emitter)
	params     any
	stateBound int
	// closedN is the feed size of one closed-loop repetition.
	closedN int
	// ladder is the fixed open-loop rate ladder in elements/s; the rung
	// at latencyRung reports the latency metrics. Rungs keep clear of
	// 70-100% of the closed-loop capacity, where whether a rung is
	// sustainable turns on the host's noise rather than on the system.
	ladder      []float64
	latencyRung int
	// latencyPasses is how many separate open-loop passes the latency
	// rung is measured in, each a fresh instance fed the same prefix,
	// interleaved with the closed-loop repetitions (1 if unset).
	latencyPasses int
	// limitUs is the p99 latency limit a ladder rung must meet to count
	// as sustainable.
	limitUs float64
	// checkpointEvery is how many input elements pass between the
	// benchmark's own Server.CheckpointNow calls (served only).
	checkpointEvery int
}

// sustainable is whether a rung's p99 latency is within the limit and
// its commit backlog within the limit's worth of inputs, both taken over
// windows of the schedule (see windowed).
func (w *workloadSpec) sustainable(res rungResult) bool {
	return res.p99 <= w.limitUs && res.backlog <= res.rate*w.limitUs/1e6
}

func (w *workloadSpec) passes() int { return max(w.latencyPasses, 1) }

func (w *workloadSpec) options() engine.Options {
	return engine.Options{PurgePunctuations: true, Partitions: w.partitions, Share: w.views > 1}
}

var (
	serveAuctionParams = auctionParams{Window: 16, MinBids: 4, MaxBids: 18}
	purgeDenseParams   = auctionParams{Window: 4, MinBids: 1, MaxBids: 3}
	probeWideParams    = probeParams{Keys: 8, Bids: 100, Watches: 40, Delay: 3}
)

var workloads = []*workloadSpec{
	{
		name: "serve-auction",
		why: "Example 1 auction via server.New: 1 producer, 1 subscriber of 8 Share views, CheckpointNow per 25k; " +
			"loads wire, serving, checkpoint, fan-out, not partitions; ladder 8k-128k/s, latency @8k, p99<=100ms",
		served: true,
		views:  8,
		query:  auctionQuery,
		gen: func(seed int64, em *emitter) {
			genAuction(seed, serveAuctionParams, em)
		},
		params:          serveAuctionParams,
		stateBound:      serveAuctionParams.stateBound(),
		closedN:         100_000,
		ladder:          []float64{8_000, 16_000, 32_000, 40_000, 128_000},
		latencyRung:     0,
		latencyPasses:   3,
		limitUs:         100_000,
		checkpointEvery: 25_000,
	},
	{
		name: "purge-dense",
		why: "embedded auction, 1-3 bids/item, window 4: 40% puncts, state 4; loads punct store and purge, " +
			"bypasses server and partitions; ladder 50k-1.2M/s, latency @50k, p99<=50ms",
		views: 1,
		query: auctionQuery,
		gen: func(seed int64, em *emitter) {
			genAuction(seed, purgeDenseParams, em)
		},
		params:        purgeDenseParams,
		stateBound:    purgeDenseParams.stateBound(),
		closedN:       200_000,
		ladder:        []float64{50_000, 100_000, 200_000, 250_000, 1_200_000},
		latencyRung:   0,
		latencyPasses: 4,
		limitUs:       50_000,
	},
	{
		name: "probe-wide",
		why: "3-way item/bid/watch join, Partitions=2: 2% puncts, 28 results/tuple, ~3.8k live tuples; loads probe, " +
			"results, partitioned runtime, bypasses server; ladder 10k-160k/s, latency @10k, p99<=100ms",
		views:      1,
		partitions: 2,
		query:      watchQuery,
		gen: func(seed int64, em *emitter) {
			genProbe(seed, probeWideParams, em)
		},
		params:        probeWideParams,
		stateBound:    probeWideParams.stateBound(),
		closedN:       50_000,
		ladder:        []float64{10_000, 20_000, 30_000, 160_000},
		latencyRung:   0,
		latencyPasses: 4,
		limitUs:       100_000,
	},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
