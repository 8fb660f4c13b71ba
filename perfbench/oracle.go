package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"

	"punctsafe/engine"
	"punctsafe/query"
	"punctsafe/stream"
)

// digest is an order-insensitive fingerprint of a delivery stream: the
// multiset of result tuples and the multiset of output punctuations.
// Each element is hashed and the hashes are summed under two independent
// mixers, so a dropped, duplicated or altered delivery changes the sums.
type digest struct {
	results, puncts uint64
	rsum, rsum2     uint64
	psum, psum2     uint64
}

func (d digest) String() string {
	return fmt.Sprintf("%d results (%016x/%016x), %d punctuations (%016x/%016x)",
		d.results, d.rsum, d.rsum2, d.puncts, d.psum, d.psum2)
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

const mix2Key = 0x9e3779b97f4a7c15

// shape says where a query's output carries what the oracle needs: the
// stamp column of every input stream (a result is identified by the
// stamps of the tuples it joins) and the itemid column.
type shape struct {
	stamps []int
	itemid int
}

func outputShape(q *query.CJQ, out *stream.Schema) (shape, error) {
	var sh shape
	for i := 0; i < q.N(); i++ {
		s := q.Stream(i)
		name := s.Name() + "_" + s.Attr(0).Name
		col := out.Index(name)
		if col < 0 {
			return sh, fmt.Errorf("output schema %s has no column %s", out, name)
		}
		sh.stamps = append(sh.stamps, col)
	}
	sh.itemid = out.Index(q.Stream(0).Name() + "_itemid")
	if sh.itemid < 0 {
		return sh, fmt.Errorf("output schema %s has no itemid column", out)
	}
	return sh, nil
}

// lastStamp is the stamp of the last input tuple contributing to t.
func (sh shape) lastStamp(t stream.Tuple) int64 {
	last := int64(-1)
	for _, c := range sh.stamps {
		if v := t.Values[c].AsInt(); v > last {
			last = v
		}
	}
	return last
}

func (d *digest) addResult(sh shape, t stream.Tuple) {
	h := uint64(t.Values[sh.itemid].AsInt())
	for _, c := range sh.stamps {
		h = mix(h ^ uint64(t.Values[c].AsInt()))
	}
	d.results++
	d.rsum += h
	d.rsum2 += mix(h ^ mix2Key)
}

func (d *digest) addPunct(p stream.Punctuation) {
	h := uint64(len(p.Patterns))
	for _, pat := range p.Patterns {
		if pat.IsWildcard() {
			h = mix(h ^ 0x5bd1e995)
		} else {
			h = mix(h ^ pat.Value().Hash())
		}
	}
	d.puncts++
	d.psum += h
	d.psum2 += mix(h ^ mix2Key)
}

// punctKey is the itemid an output punctuation closes, or -1.
func punctKey(p stream.Punctuation) int64 {
	for _, pat := range p.Patterns {
		if !pat.IsWildcard() && !pat.IsLeq() && pat.Value().Kind() == stream.KindInt {
			return pat.Value().AsInt()
		}
	}
	return -1
}

// reference is the sequential DSMS.Push oracle over a feed: the digest
// of every prefix a run may stop at, and for each itemid the feed
// position whose push emitted that itemid's output punctuation.
type reference struct {
	at       map[int]digest
	closedAt []int32
	shape    shape
}

// referenceRun feeds elements through the sequential engine as they are
// generated, recording the digest after each cut.
type referenceRun struct {
	ref  *reference
	d    *engine.DSMS
	dig  digest
	pos  int
	want map[int]bool
}

func newReferenceRun(spec *workloadSpec, q *query.CJQ, schemes *stream.SchemeSet, cuts []int) (*referenceRun, error) {
	rr := &referenceRun{ref: &reference{at: map[int]digest{0: {}}}, d: engine.New(), want: map[int]bool{}}
	for _, c := range cuts {
		rr.want[c] = true
	}
	for _, s := range schemes.All() {
		rr.d.RegisterScheme(s)
	}
	opts := spec.options()
	opts.OnResult = func(t stream.Tuple) { rr.dig.addResult(rr.ref.shape, t) }
	opts.OnPunct = func(p stream.Punctuation) {
		rr.dig.addPunct(p)
		if k := punctKey(p); k >= 0 {
			for int64(len(rr.ref.closedAt)) <= k {
				rr.ref.closedAt = append(rr.ref.closedAt, -1)
			}
			rr.ref.closedAt[k] = int32(rr.pos)
		}
	}
	r, err := rr.d.Register("ref", q, opts)
	if err != nil {
		return nil, err
	}
	if rr.ref.shape, err = outputShape(q, r.OutputSchema()); err != nil {
		return nil, err
	}
	return rr, nil
}

// push feeds element i.
func (rr *referenceRun) push(i int, streamName string, e stream.Element) error {
	rr.pos = i
	if err := rr.d.Push(streamName, e); err != nil {
		return fmt.Errorf("reference: element %d: %w", i, err)
	}
	if rr.want[i+1] {
		rr.ref.at[i+1] = rr.dig
	}
	return nil
}

// consumer observes one delivery stream: it fingerprints every delivery,
// checks delivery sequence numbers when the transport has them, and,
// in open-loop runs, records each delivery's latency from the time the
// input that completed it was due.
type consumer struct {
	ref    *reference
	dig    digest
	seq    uint64 // last delivery sequence number seen
	seqErr error
	pace   *pacer
	// lat and plat hold result and punctuation latencies, one histogram
	// per window of the schedule (see windowed).
	lat, plat [latencyWindows]histogram
}

func (c *consumer) result(t stream.Tuple) {
	c.dig.addResult(c.ref.shape, t)
	if c.pace != nil {
		i := int(c.ref.shape.lastStamp(t))
		c.lat[c.pace.window(i)].add(time.Since(c.pace.due(i)))
	}
}

func (c *consumer) punct(p stream.Punctuation) {
	c.dig.addPunct(p)
	if c.pace != nil {
		if k := punctKey(p); k >= 0 && k < int64(len(c.ref.closedAt)) && c.ref.closedAt[k] >= 0 {
			i := int(c.ref.closedAt[k])
			c.plat[c.pace.window(i)].add(time.Since(c.pace.due(i)))
		}
	}
}

func (c *consumer) element(e stream.Element) {
	if e.IsPunct() {
		c.punct(e.Punct())
	} else {
		c.result(e.Tuple())
	}
}

// delivery checks that server delivery sequence numbers run 1, 2, 3, …
func (c *consumer) delivery(seq uint64, e stream.Element) {
	if seq != c.seq+1 && c.seqErr == nil {
		c.seqErr = fmt.Errorf("delivery seq %d after %d", seq, c.seq)
	}
	c.seq = seq
	c.element(e)
}

// check compares the consumer's stream with the reference after n
// input elements.
func (c *consumer) check(n int) error {
	if c.seqErr != nil {
		return c.seqErr
	}
	want, ok := c.ref.at[n]
	if !ok {
		return fmt.Errorf("no reference for a %d-element prefix", n)
	}
	if c.dig != want {
		return fmt.Errorf("delivered %v, reference %v", c.dig, want)
	}
	return nil
}

// pacer is an open-loop schedule of n elements: element i is due at
// t0 + i/rate.
type pacer struct {
	t0     time.Time
	period float64 // ns per element
	n      int
}

func newPacer(rate float64, n int) *pacer { return &pacer{t0: time.Now(), period: 1e9 / rate, n: n} }

func (p *pacer) due(i int) time.Time { return p.t0.Add(time.Duration(float64(i) * p.period)) }

// dueBy is how many elements are due at time t.
func (p *pacer) dueBy(t time.Time) int { return int(float64(t.Sub(p.t0))/p.period) + 1 }

// latencyWindows is how many equal stretches of the schedule latency
// percentiles are taken over separately.
const latencyWindows = 10

// window is the stretch of the schedule element i is due in.
func (p *pacer) window(i int) int {
	if w := i * latencyWindows / p.n; w < latencyWindows {
		return w
	}
	return latencyWindows - 1
}

// windowed returns the median over the windows of each window's
// q-quantile, in nanoseconds, and the total sample count. A stall
// outside the system under test — another tenant's burst on a shared
// host — then moves one window's tail instead of the whole run's. When a
// window has too few samples for its p99 to rest on ten or more, the
// windows are merged and the quantile is taken over the whole schedule.
func windowed(hs *[latencyWindows]histogram, q float64) (float64, uint64) {
	var qs []float64
	var all histogram
	split := true
	for i := range hs {
		if hs[i].n < 1000 {
			split = false
		}
		qs = append(qs, hs[i].quantile(q))
		all.merge(&hs[i])
	}
	if !split {
		return all.quantile(q), all.n
	}
	return median(qs), all.n
}

// histogram records durations in log-linear buckets (64 per power of
// two, under 1.6% relative error), enough for p50/p99 over millions of
// samples without storing them.
type histogram struct {
	counts []uint64
	n      uint64
}

const histSub = 64

func histBucket(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := 63 - bits.LeadingZeros64(uint64(ns)) // ns in [2^e, 2^(e+1))
	shift := e - 6
	return (e-5)*histSub + int(uint64(ns)>>shift) - histSub
}

func histValue(b int) float64 {
	if b < histSub {
		return float64(b)
	}
	e := b/histSub + 5
	sub := b%histSub + histSub
	return (float64(sub) + 0.5) * math.Ldexp(1, e-6)
}

func (h *histogram) add(d time.Duration) {
	b := histBucket(int64(d))
	if b >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, b+1-len(h.counts)+histSub)...)
	}
	h.counts[b]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	if len(o.counts) > len(h.counts) {
		h.counts = append(h.counts, make([]uint64, len(o.counts)-len(h.counts))...)
	}
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return histValue(b)
		}
	}
	return histValue(len(h.counts) - 1)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates the q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
