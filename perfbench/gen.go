package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"punctsafe/engine"
	"punctsafe/query"
	"punctsafe/stream"
	"punctsafe/workload"
)

// A feed is one generated input sequence, kept in its wire form. Every
// element's position in the feed is its stamp: tuples carry it in their
// first attribute, so a delivered result names the last input tuple that
// contributed to it (the one with the highest stamp), and an open-loop
// run can compute the time that tuple was due.
type feed struct {
	schemas []*stream.Schema
	// wire is the feed's wire encoding and ends[i] the offset just past
	// element i, so a byte offset maps back to an element count.
	wire []byte
	ends []int64
	// elems holds the parsed elements, only for traced runs and tests:
	// measured runs read the wire bytes, which the garbage collector does
	// not have to scan.
	elems []feedElem
}

type feedElem struct {
	stream string
	e      stream.Element
}

// elemsAt returns how many whole elements lie below the wire offset off.
func (f *feed) elemsAt(off int64) int {
	lo, hi := 0, len(f.ends)
	for lo < hi {
		m := (lo + hi) / 2
		if f.ends[m] <= off {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// emitter numbers generated elements and hands the first n to a sink.
type emitter struct {
	n, count int
	sink     func(streamName string, e stream.Element) error
	err      error
}

func (em *emitter) full() bool { return em.count >= em.n || em.err != nil }

func (em *emitter) stamp() stream.Value { return stream.Int(int64(em.count)) }

func (em *emitter) add(streamName string, e stream.Element) {
	if em.full() {
		return
	}
	em.err = em.sink(streamName, e)
	em.count++
}

// buildFeed generates the first n elements of the workload's feed for
// seed. Each element is encoded to the wire and pushed through the
// sequential reference as it is made, so no parsed copy of the feed is
// held unless keep asks for one; cuts are the prefix lengths the
// reference records a digest for.
func buildFeed(spec *workloadSpec, seed int64, n int, cuts []int, keep bool) (*feed, *reference, error) {
	q, schemes := spec.query()
	f := &feed{ends: make([]int64, 0, n)}
	for i := 0; i < q.N(); i++ {
		f.schemas = append(f.schemas, q.Stream(i))
	}
	var buf bytes.Buffer
	ww := engine.NewWireWriter(&buf, f.schemas...)
	rr, err := newReferenceRun(spec, q, schemes, cuts)
	if err != nil {
		return nil, nil, err
	}
	em := &emitter{n: n, sink: func(streamName string, e stream.Element) error {
		i := len(f.ends)
		if err := ww.Write(streamName, e); err != nil {
			return fmt.Errorf("encode element %d: %w", i, err)
		}
		f.ends = append(f.ends, int64(buf.Len()))
		if keep {
			f.elems = append(f.elems, feedElem{stream: streamName, e: e})
		}
		return rr.push(i, streamName, e)
	}}
	spec.gen(seed, em)
	if em.err != nil {
		return nil, nil, em.err
	}
	f.wire = buf.Bytes()
	return f, rr.ref, nil
}

// auctionParams shapes the Example 1 auction feed: Window auctions are
// open at any time, each draws between MinBids and MaxBids bids, and an
// auction closes (bid punctuation on its itemid) once its bids are in.
// Every item tuple is followed by an item punctuation on its itemid.
type auctionParams struct {
	Window  int `json:"window"`
	MinBids int `json:"min_bids"`
	MaxBids int `json:"max_bids"`
	// WithholdClose drops the bid punctuations, so item tuples are never
	// purged: the unsafe feed of Theorem 1, used by the tests.
	WithholdClose bool `json:"withhold_close,omitempty"`
}

// stateBound is the most tuples the auction join may hold at once if
// purging works: every open auction's item and all of its bids.
func (p auctionParams) stateBound() int { return p.Window * (1 + p.MaxBids) }

func auctionQuery() (*query.CJQ, *stream.SchemeSet) {
	return workload.AuctionQuery(), workload.AuctionSchemes()
}

// genAuction generates the seeded auction feed until em is full.
func genAuction(seed int64, p auctionParams, em *emitter) {
	rng := rand.New(rand.NewSource(seed))
	type auction struct {
		id      int64
		pending int
	}
	open := make([]auction, 0, p.Window)
	next := int64(0)
	for !em.full() {
		for len(open) < p.Window && !em.full() {
			id := next
			next++
			em.add("item", stream.TupleElement(stream.NewTuple(
				em.stamp(), stream.Int(id), stream.Str(fmt.Sprintf("item-%d", id)),
				stream.Float(float64(1+rng.Intn(100))))))
			em.add("item", stream.PunctElement(stream.MustPunctuation(
				stream.Wildcard(), stream.Const(stream.Int(id)), stream.Wildcard(), stream.Wildcard())))
			open = append(open, auction{id: id, pending: p.MinBids + rng.Intn(p.MaxBids-p.MinBids+1)})
		}
		if em.full() {
			break
		}
		i := rng.Intn(len(open))
		em.add("bid", stream.TupleElement(stream.NewTuple(
			em.stamp(), stream.Int(open[i].id), stream.Float(float64(1+rng.Intn(20))))))
		if open[i].pending--; open[i].pending > 0 {
			continue
		}
		if !p.WithholdClose {
			em.add("bid", stream.PunctElement(stream.MustPunctuation(
				stream.Wildcard(), stream.Const(stream.Int(open[i].id)), stream.Wildcard())))
		}
		open = append(open[:i], open[i+1:]...)
	}
}

// watchSchema is the third stream of the probe-wide join: users watching
// an item.
func watchSchema() *stream.Schema {
	return stream.MustSchema("watch",
		stream.Attribute{Name: "watcherid", Kind: stream.KindInt},
		stream.Attribute{Name: "itemid", Kind: stream.KindInt})
}

// watchQuery is item ⨝ bid ⨝ watch on itemid, with every stream
// punctuatable on itemid.
func watchQuery() (*query.CJQ, *stream.SchemeSet) {
	item, bid := workload.AuctionSchemas()
	q := query.NewBuilder().
		AddStream(item).AddStream(bid).AddStream(watchSchema()).
		JoinOn("item", "bid", "itemid").
		JoinOn("bid", "watch", "itemid").
		MustBuild()
	schemes := stream.NewSchemeSet(
		stream.MustScheme("item", false, true, false, false),
		stream.MustScheme("bid", false, true, false),
		stream.MustScheme("watch", false, true),
	)
	return q, schemes
}

// probeParams shapes the probe-wide feed: itemids arrive in blocks of
// Keys; each block carries one item per key, then Bids bids and Watches
// watches per key in random order. A block's keys are punctuated on all
// three streams Delay blocks later, one key at a time, spread evenly
// through that later block, as independent closes would be.
type probeParams struct {
	Keys    int `json:"keys_per_block"`
	Bids    int `json:"bids_per_key"`
	Watches int `json:"watches_per_key"`
	Delay   int `json:"punct_delay_blocks"`
}

func (p probeParams) blockTuples() int { return p.Keys * (1 + p.Bids + p.Watches) }

// stateBound allows Delay+1 unpunctuated blocks plus one block of slack
// for replicas whose high-water marks fall at different times.
func (p probeParams) stateBound() int { return (p.Delay + 2) * p.blockTuples() }

// genProbe generates the seeded probe-wide feed until em is full.
func genProbe(seed int64, p probeParams, em *emitter) {
	rng := rand.New(rand.NewSource(seed))
	kinds := make([]bool, 0, p.Keys*(p.Bids+p.Watches)) // true: bid
	for b := 0; !em.full(); b++ {
		base := int64(b * p.Keys)
		for k := 0; k < p.Keys; k++ {
			id := base + int64(k)
			em.add("item", stream.TupleElement(stream.NewTuple(
				em.stamp(), stream.Int(id), stream.Str(fmt.Sprintf("item-%d", id)),
				stream.Float(float64(1+rng.Intn(100))))))
		}
		kinds = kinds[:0]
		for i := 0; i < p.Keys*p.Bids; i++ {
			kinds = append(kinds, true)
		}
		for i := 0; i < p.Keys*p.Watches; i++ {
			kinds = append(kinds, false)
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		closed, every := b-p.Delay, len(kinds)/p.Keys
		for j, isBid := range kinds {
			id := stream.Int(base + rng.Int63n(int64(p.Keys)))
			if isBid {
				em.add("bid", stream.TupleElement(stream.NewTuple(em.stamp(), id, stream.Float(float64(1+rng.Intn(20))))))
			} else {
				em.add("watch", stream.TupleElement(stream.NewTuple(em.stamp(), id)))
			}
			if k := j / every; closed >= 0 && j%every == every-1 && k < p.Keys {
				id := stream.Const(stream.Int(int64(closed*p.Keys + k)))
				w := stream.Wildcard()
				em.add("item", stream.PunctElement(stream.MustPunctuation(w, id, w, w)))
				em.add("bid", stream.PunctElement(stream.MustPunctuation(w, id, w)))
				em.add("watch", stream.PunctElement(stream.MustPunctuation(w, id)))
			}
		}
	}
}
