package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"punctsafe/engine"
	"punctsafe/exec"
	"punctsafe/plan"
	"punctsafe/safety"
	"punctsafe/stream"
)

// tracer keeps the spans of a traced run in memory: per-call durations
// by span name, coarse spans with start and end, and the marks needed to
// turn flushes, commits and acks into lags. It is written out as JSON
// when the run ends.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	durs   map[string][]time.Duration
	counts map[string][]float64
	spans  []spanRec
	// flushes are Producer.Flush returns with the wire offset sent by
	// then; commits are the runtime's ingest commits, from IngestTap.
	flushes []offsetMark
	commits []offsetMark
	subLast atomic.Uint64
}

type spanRec struct {
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Parent  string  `json:"parent,omitempty"`
}

type offsetMark struct {
	at  time.Time
	off int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), durs: map[string][]time.Duration{}, counts: map[string][]float64{}}
}

func (t *tracer) add(name string, d time.Duration) {
	t.mu.Lock()
	t.durs[name] = append(t.durs[name], d)
	t.mu.Unlock()
}

func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] = append(t.counts[name], v)
	t.mu.Unlock()
}

// span opens a coarse span caused by the span named parent ("" for a
// top-level phase); the returned func closes it and records it.
func (t *tracer) span(name, parent string) func() {
	start := time.Now()
	return func() {
		end := time.Now()
		t.add(name, end.Sub(start))
		t.mu.Lock()
		t.spans = append(t.spans, spanRec{Name: name, StartUs: us(start.Sub(t.t0)), EndUs: us(end.Sub(t.t0)), Parent: parent})
		t.mu.Unlock()
	}
}

func (t *tracer) flushed(start, end time.Time, sent int64) {
	t.add("server.flush", end.Sub(start))
	t.mu.Lock()
	t.flushes = append(t.flushes, offsetMark{at: end, off: sent})
	t.mu.Unlock()
}

func (t *tracer) committed(end int64) {
	now := time.Now()
	t.mu.Lock()
	t.commits = append(t.commits, offsetMark{at: now, off: end})
	t.mu.Unlock()
}

// reset drops the per-call records of earlier phases.
func (t *tracer) reset(names ...string) {
	t.mu.Lock()
	for _, n := range names {
		delete(t.durs, n)
	}
	t.flushes, t.commits = nil, nil
	t.mu.Unlock()
}

func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, d := range t.durs[name] {
		sum += d
	}
	return sum
}

func (t *tracer) quantile(name string, q float64) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	xs := make([]float64, len(t.durs[name]))
	for i, d := range t.durs[name] {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, q))
}

func (t *tracer) maxCount(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := 0.0
	for _, v := range t.counts[name] {
		if v > m {
			m = v
		}
	}
	return m
}

// lags pairs every flush with the first mark at or past its offset and
// returns the waits, skipping flushes no mark reached.
func lags(flushes, marks []offsetMark) []float64 {
	var out []float64
	j := 0
	for _, f := range flushes {
		for j < len(marks) && marks[j].off < f.off {
			j++
		}
		if j == len(marks) {
			break
		}
		d := marks[j].at.Sub(f.at)
		if d < 0 {
			d = 0 // committed while Flush was still returning
		}
		out = append(out, float64(d))
	}
	return out
}

// write dumps the trace: every coarse span, and per span name the call
// count, total and p50/p99.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type summary struct {
		Calls   int     `json:"calls"`
		TotalUs float64 `json:"total_us"`
		P50Us   float64 `json:"p50_us"`
		P99Us   float64 `json:"p99_us"`
	}
	sums := map[string]summary{}
	for name, ds := range t.durs {
		xs := make([]float64, len(ds))
		var tot time.Duration
		for i, d := range ds {
			xs[i] = float64(d)
			tot += d
		}
		sums[name] = summary{len(ds), us(tot), quantile(xs, 0.5) / 1e3, quantile(xs, 0.99) / 1e3}
	}
	b, err := json.MarshalIndent(map[string]any{"spans": t.spans, "calls": sums, "counts": t.counts}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when there is nothing to divide by (a workload
// with no punctuations in a smoke-test feed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// clockCost is the cost of one time.Now pair, subtracted from per-call
// timings of calls that take well under a microsecond.
func clockCost() time.Duration {
	const n = 10000
	t0 := time.Now()
	var sink time.Duration
	for i := 0; i < n; i++ {
		a := time.Now()
		sink += time.Since(a)
	}
	_ = sink
	return time.Since(t0) / n
}

// streamIndex maps the feed's stream names to the query's input indexes.
func streamIndex(spec *workloadSpec) map[string]int {
	q, _ := spec.query()
	idx := map[string]int{}
	for i := 0; i < q.N(); i++ {
		idx[q.Stream(i).Name()] = i
	}
	return idx
}

// perLayer runs the traced phases and returns every per-layer metric.
func (r *run) perLayer() (map[string]float64, error) {
	m := map[string]float64{}
	tr := newTracer()
	n := r.spec.closedN
	q, schemes := r.spec.query()

	// Set-up: the safety check, plan choice and registration the engine
	// runs inside Register, each timed on its own, then the workload's
	// own start-up (server start and client connections when served).
	var check, choose, reg []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		rep, err := safety.Check(q, schemes)
		check = append(check, us(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		if !rep.Safe {
			return nil, errors.New("safety.Check reports the query unsafe")
		}
		t0 = time.Now()
		if _, err := plan.ChooseSafe(q, schemes, nil); err != nil {
			return nil, err
		}
		choose = append(choose, us(time.Since(t0)))
		d := engine.New()
		for _, s := range schemes.All() {
			d.RegisterScheme(s)
		}
		t0 = time.Now()
		for v := 0; v < r.spec.views; v++ {
			if _, err := d.Register(viewName(v), q, r.spec.options()); err != nil {
				return nil, err
			}
		}
		reg = append(reg, us(time.Since(t0)))
		if trees := d.PhysicalTrees(); trees != 1 {
			return nil, fmt.Errorf("%d Share-equal views run on %d physical trees, want 1", r.spec.views, trees)
		}
	}
	m["engine.share.physical_trees"] = 1
	m["setup.safety_check_us"] = median(check)
	m["setup.plan_choose_us"] = median(choose)
	m["setup.register_us"] = median(reg)
	if _, err := r.measureSetup(tr, setups); err != nil {
		return nil, err
	}
	if r.spec.served {
		m["setup.server_start_ms"] = float64(tr.quantile("setup.server_start", 0.5)) / 1e6
		m["setup.connect_ms"] = float64(tr.quantile("setup.connect", 0.5)) / 1e6
	}

	// engine.wire: encode and decode the closed-loop feed.
	wire := r.f.wire[:r.f.ends[n-1]]
	m["wire.bytes_per_elem"] = float64(len(wire)) / float64(n)
	var enc, dec, decAllocs []float64
	for rep := 0; rep < 3; rep++ {
		var buf bytes.Buffer
		buf.Grow(len(wire))
		ww := engine.NewWireWriter(&buf, r.f.schemas...)
		end := tr.span("wire.encode", "")
		t0 := time.Now()
		for _, fe := range r.f.elems[:n] {
			if err := ww.Write(fe.stream, fe.e); err != nil {
				return nil, err
			}
		}
		enc = append(enc, float64(time.Since(t0))/float64(n))
		end()
		if !bytes.Equal(buf.Bytes(), wire) {
			return nil, errors.New("wire encoding differs from the feed's")
		}

		wr := engine.NewWireReader(bytes.NewReader(wire), r.f.schemas...)
		runtime.GC()
		a0 := readAllocs()
		end = tr.span("wire.decode", "")
		t0 = time.Now()
		got := 0
		for {
			if _, err := wr.Read(); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			got++
		}
		dec = append(dec, float64(time.Since(t0))/float64(n))
		end()
		decAllocs = append(decAllocs, float64(readAllocs().since(a0).objs)/float64(n))
		if got != n {
			return nil, fmt.Errorf("decoded %d of %d elements", got, n)
		}
	}
	m["wire.encode_ns_per_elem"] = median(enc)
	m["wire.decode_ns_per_elem"] = median(dec)
	m["wire.decode_allocs_per_elem"] = median(decAllocs)

	// exec: replay the closed-loop feed through the operator tree.
	ex, execPerElem, err := r.replayExec(tr, n)
	if err != nil {
		return nil, err
	}
	for k, v := range ex {
		m[k] = v
	}

	// engine runtime: closed-loop repetitions on the embedded runtime,
	// traced and untraced in turn. A served workload's engine layers are
	// measured on an embedded copy with the same views.
	emb := *r.spec
	emb.served = false
	er := *r
	er.spec = &emb
	var ingest, drain, elapsed, tracedEps, plainEps, skew []float64
	var deadLetters, delivered float64
	for rep := 0; rep < 3; rep++ {
		plain, err := er.closedLoop(nil, false)
		if !r.outcome("untraced closed loop", n, err) {
			return nil, err
		}
		c, err := er.closedLoop(tr, false)
		if !r.outcome("traced closed loop", n, err) {
			return nil, err
		}
		ingest = append(ingest, float64(c.ingest)/float64(n))
		drain = append(drain, float64(c.drain))
		elapsed = append(elapsed, float64(c.elapsed)/float64(n))
		if !r.spec.served {
			plainEps = append(plainEps, plain.eps)
			tracedEps = append(tracedEps, c.eps)
		}
		deadLetters += float64(c.stats.deadLetters)
		delivered = float64(c.stats.delivered[0])
		if c.skew > 0 {
			skew = append(skew, c.skew)
		}
	}
	m["engine.ingest_ns_per_elem"] = median(ingest)
	m["engine.drain_ns"] = median(drain)
	m["engine.stats_barrier_us"] = float64(tr.quantile("engine.stats_barrier", 0.5)) / 1e3
	m["engine.dead_letters"] = deadLetters
	m["engine.share.delivered_per_view"] = delivered
	m["engine.partition.skew"] = median(skew)
	runtimeSelf := median(ingest) + median(drain)/float64(n) - m["wire.decode_ns_per_elem"] - execPerElem
	m["engine.runtime_self_ns_per_elem"] = runtimeSelf
	layers := m["wire.decode_ns_per_elem"] + execPerElem + runtimeSelf
	e2e := median(elapsed)

	if r.spec.partitions > 0 {
		cp, err := r.criticalPath(n)
		if err != nil {
			return nil, err
		}
		m["engine.partition.critical_path_ns_per_elem"] = cp
	}

	if !r.spec.served {
		// The latency rung, untraced, for the p99 latencies and the
		// generator's lateness (traceServed runs it traced when served).
		rung, err := r.openLoop(r.spec.latencyRung, nil)
		if !r.outcome("latency rung", r.rungN[r.spec.latencyRung], err) {
			return nil, err
		}
		m["latency_p99_us"], m["punct_latency_p99_us"] = rung.p99, rung.pp99
		m["gen.late_p99_us"] = rung.lateP99
	}

	if r.spec.served {
		sv, rec, err := r.traceServed(tr)
		if err != nil {
			return nil, err
		}
		for k, v := range sv {
			m[k] = v
		}
		layers += m["server.send_ns_per_elem"] + rec.flushNs + rec.checkpointNs
		e2e = rec.e2eNs
		plainEps, tracedEps = []float64{rec.plainEps}, []float64{rec.tracedEps}
	}
	m["recon.residual_ns_per_elem"] = e2e - layers
	m["recon.residual_frac"] = ratio(e2e-layers, e2e)
	if u := median(plainEps); u > 0 {
		m["trace.overhead_frac"] = (u - median(tracedEps)) / u
	}
	if err := tr.write(filepath.Join(r.rundir, fmt.Sprintf("trace-%s-seed%d.json", r.spec.name, r.seed))); err != nil {
		return nil, err
	}
	return m, nil
}

// statsSampler calls Runtime.Stats every 50ms until
// stopped, recording each barrier as an engine.stats_barrier span.
func statsSampler(rt *engine.Runtime, tr *tracer) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			if _, err := rt.Stats(viewName(0)); err != nil {
				return
			}
			tr.add("engine.stats_barrier", time.Since(t0))
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// replayExec pushes the first n feed elements through a fresh operator
// tree twice: once timing every Push by element kind, once counting heap
// allocations per Push, then reads the purge counters. It also returns
// the replay's total time per element.
func (r *run) replayExec(tr *tracer, n int) (map[string]float64, float64, error) {
	idx := streamIndex(r.spec)
	overhead := clockCost()
	push, stats, err := r.freshExec()
	if err != nil {
		return nil, 0, err
	}
	var tupleT, punctT time.Duration
	var tuples, puncts float64
	end := tr.span("exec.replay", "")
	for _, fe := range r.f.elems[:n] {
		t0 := time.Now()
		if err := push(idx[fe.stream], fe.e); err != nil {
			return nil, 0, err
		}
		d := time.Since(t0) - overhead
		if fe.e.IsPunct() {
			punctT += d
			puncts++
		} else {
			tupleT += d
			tuples++
		}
	}
	end()
	m := map[string]float64{}
	m["exec.tuple_ns"] = ratio(float64(tupleT), tuples)
	m["exec.punct_ns"] = ratio(float64(punctT), puncts)
	m["exec.punct_time_frac"] = ratio(float64(punctT), float64(tupleT+punctT))
	var purged, checks, results uint64
	for i, s := range stats() {
		for _, v := range s.TuplesPurged {
			purged += v
		}
		checks += s.PurgeChecks
		if i == len(stats())-1 {
			results = s.Results
		}
	}
	m["exec.purge_useful_ratio"] = ratio(float64(purged), float64(checks))
	m["exec.purge_checks_per_punct"] = ratio(float64(checks), puncts)
	m["exec.results_per_tuple"] = ratio(float64(results), tuples)

	push, _, err = r.freshExec()
	if err != nil {
		return nil, 0, err
	}
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	read := func() uint64 {
		metrics.Read(samples)
		return samples[0].Value.Uint64() + samples[1].Value.Uint64()
	}
	var tupleA, punctA uint64
	prev := read()
	for _, fe := range r.f.elems[:n] {
		if err := push(idx[fe.stream], fe.e); err != nil {
			return nil, 0, err
		}
		now := read()
		if fe.e.IsPunct() {
			punctA += now - prev
		} else {
			tupleA += now - prev
		}
		prev = now
	}
	m["exec.tuple_allocs"] = ratio(float64(tupleA), tuples)
	m["exec.punct_allocs"] = ratio(float64(punctA), puncts)
	return m, float64(tupleT+punctT) / float64(n), nil
}

// freshExec registers the workload's query on a new DSMS and returns its
// executor's Push (exec.Tree or exec.PartitionedTree) and stats.
func (r *run) freshExec() (func(int, stream.Element) error, func() []*exec.Stats, error) {
	q, schemes := r.spec.query()
	d := engine.New()
	for _, s := range schemes.All() {
		d.RegisterScheme(s)
	}
	reg, err := d.Register("replay", q, r.spec.options())
	if err != nil {
		return nil, nil, err
	}
	if reg.Part != nil {
		pt := reg.Part
		return func(i int, e stream.Element) error {
			_, err := pt.Push(i, e)
			return err
		}, pt.StatsSnapshot, nil
	}
	t := reg.Tree
	return func(i int, e stream.Element) error {
		_, err := t.Push(i, e)
		return err
	}, t.StatsSnapshot, nil
}

// criticalPath replays each replica's share of the feed — its tuples and
// every punctuation — through the PartitionedTree's replica trees and
// returns the slowest replica's time per input element.
func (r *run) criticalPath(n int) (float64, error) {
	q, schemes := r.spec.query()
	d := engine.New()
	for _, s := range schemes.All() {
		d.RegisterScheme(s)
	}
	reg, err := d.Register("replay", q, r.spec.options())
	if err != nil {
		return 0, err
	}
	pt := reg.Part
	if pt == nil {
		return 0, fmt.Errorf("query did not partition: %s", reg.PartitionReason)
	}
	idx := streamIndex(r.spec)
	overhead := clockCost()
	busy := make([]time.Duration, pt.Partitions())
	pushTo := func(p, i int, e stream.Element) error {
		t0 := time.Now()
		_, err := pt.Partition(p).Push(i, e)
		busy[p] += time.Since(t0) - overhead
		return err
	}
	for _, fe := range r.f.elems[:n] {
		i := idx[fe.stream]
		if fe.e.IsPunct() {
			for p := range busy {
				if err := pushTo(p, i, fe.e); err != nil {
					return 0, err
				}
			}
		} else if err := pushTo(pt.PartitionOf(i, fe.e.Tuple()), i, fe.e); err != nil {
			return 0, err
		}
	}
	sort.Slice(busy, func(a, b int) bool { return busy[a] > busy[b] })
	return float64(busy[0]) / float64(n), nil
}

// traceServed measures the serving layers: traced closed-loop
// repetitions for checkpoints and the reconciliation row, and a traced
// open-loop pass at the latency rung for Producer.Send and Flush, commit
// and ack lags, subscriber lag, backlog and generator lateness.
func (r *run) traceServed(tr *tracer) (map[string]float64, servedRecon, error) {
	m := map[string]float64{}
	n := r.spec.closedN
	var plain, traced []float64
	var e2e, flush, ckpt []float64
	for rep := 0; rep < 3; rep++ {
		p, err := r.closedLoop(nil, false)
		if !r.outcome("untraced served closed loop", n, err) {
			return nil, servedRecon{}, err
		}
		plain = append(plain, p.eps)
		tr.reset("server.send", "server.flush", "server.checkpoint")
		c, err := r.closedLoop(tr, false)
		if !r.outcome("traced served closed loop", n, err) {
			return nil, servedRecon{}, err
		}
		traced = append(traced, c.eps)
		e2e = append(e2e, float64(c.elapsed)/float64(n))
		flush = append(flush, float64(tr.total("server.flush"))/float64(n))
		ckpt = append(ckpt, float64(tr.total("server.checkpoint"))/float64(n))
		m["server.checkpoint_ms_p50"] = float64(tr.quantile("server.checkpoint", 0.5)) / 1e6
		m["server.checkpoint_ms_max"] = float64(tr.quantile("server.checkpoint", 1)) / 1e6
	}
	rec := servedRecon{
		e2eNs: median(e2e), flushNs: median(flush), checkpointNs: median(ckpt),
		plainEps: median(plain), tracedEps: median(traced),
	}
	m["server.checkpoint_bytes"] = tr.maxCount("server.checkpoint_bytes")

	// Below saturation Producer.Send does not wait on the server, so the
	// open-loop pass gives its own cost; in the closed loop it mostly
	// measures backpressure.
	tr.reset("server.flush", "server.send")
	rung, err := r.openLoop(r.spec.latencyRung, tr)
	if !r.outcome("traced open loop", r.rungN[r.spec.latencyRung], err) {
		return nil, servedRecon{}, err
	}
	m["server.send_ns_per_elem"] = float64(tr.total("server.send")) / float64(r.rungN[r.spec.latencyRung])
	mon := rung.mon
	m["server.flush_us"] = float64(tr.quantile("server.flush", 0.5)) / 1e3
	tr.mu.Lock()
	commit := lags(tr.flushes, tr.commits)
	tr.mu.Unlock()
	ack := lags(tr.flushes, mon.acks)
	m["server.commit_lag_us_p50"] = quantile(commit, 0.5) / 1e3
	m["server.commit_lag_us_p99"] = quantile(commit, 0.99) / 1e3
	m["server.ack_lag_ms_p50"] = quantile(ack, 0.5) / 1e6
	m["server.ack_lag_ms_p99"] = quantile(ack, 0.99) / 1e6
	m["server.sub_behind_max"] = float64(mon.subBehindMax)
	m["server.backlog_max"] = float64(mon.backlogMax)
	m["gen.late_p99_us"] = rung.lateP99
	m["latency_p99_us"], m["punct_latency_p99_us"] = rung.p99, rung.pp99
	return m, rec, nil
}

// servedRecon carries the served closed loop's reconciliation terms:
// traced ns per element end to end and in Flush and checkpoints, and
// untraced vs traced throughput.
type servedRecon struct {
	e2eNs, flushNs, checkpointNs float64
	plainEps, tracedEps          float64
}

// monitor samples a traced served instance every millisecond: producer
// acks, the commit backlog, and every fifth tick how far the subscriber
// trails the query's deliveries.
type monitor struct {
	acks         []offsetMark
	subBehindMax int64
	backlogMax   int
	quit, done   chan struct{}
}

func startMonitor(in *instance, tr *tracer) *monitor {
	mon := &monitor{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(mon.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		lastAck := int64(-1)
		rt := in.srv.Runtime()
		for i := 0; ; i++ {
			select {
			case <-mon.quit:
				return
			case <-tick.C:
			}
			if a := in.prod.Acked(); a > lastAck {
				lastAck = a
				mon.acks = append(mon.acks, offsetMark{at: time.Now(), off: a})
			}
			if b := in.f.elemsAt(in.prod.Sent()) - in.f.elemsAt(rt.ResumeOffset(source)); b > mon.backlogMax {
				mon.backlogMax = b
			}
			if i%5 != 0 {
				continue
			}
			st, err := rt.Stats(viewName(0))
			if err != nil {
				continue
			}
			root := st[len(st)-1]
			if behind := int64(root.Results+root.OutPuncts) - int64(tr.subLast.Load()); behind > mon.subBehindMax {
				mon.subBehindMax = behind
			}
		}
	}()
	return mon
}

func (mon *monitor) stop() {
	close(mon.quit)
	<-mon.done
}
