package main

import (
	"fmt"
	"runtime"
	"time"

	"punctsafe/safety"
)

// run holds one benchmark invocation's shared state.
type run struct {
	spec      *workloadSpec
	seed      int64
	seconds   float64
	traced    bool
	rundir    string
	f         *feed
	ref       *reference
	rungN     []int
	attempted int
	failed    int
	errs      []error
	log       func(format string, args ...any)
}

// Shares of --seconds given to each measured phase.
const (
	closedShare  = 0.35
	latencyShare = 0.35
	ladderShare  = 0.25
	// maxFeed caps the generated feed so memory stays small at high
	// ladder rates: such a rung simply runs shorter.
	maxFeed = 300_000
	// setups is how many set-ups a traced run times; an untraced run
	// times setupsPerRep before every closed-loop repetition.
	setups       = 61
	setupsPerRep = 12
)

// prepare checks that the query is safe, generates the feed and computes
// the reference for every prefix a phase will stop at.
func (r *run) prepare() error {
	s := r.spec
	q, schemes := s.query()
	rep, err := safety.Check(q, schemes)
	if err != nil {
		return err
	}
	if !rep.Safe {
		return fmt.Errorf("safety.Check reports %s unsafe; its join state is unbounded", q)
	}
	nMax := s.closedN
	r.rungN = make([]int, len(s.ladder))
	other := r.seconds * ladderShare / float64(len(s.ladder)-1)
	for i, rate := range s.ladder {
		d := other
		if i == s.latencyRung {
			d = r.seconds * latencyShare / float64(s.passes())
		}
		n := int(rate * d)
		if n > maxFeed {
			n = maxFeed
		}
		r.rungN[i] = n
		if n > nMax {
			nMax = n
		}
	}
	cuts := append([]int{s.closedN}, r.rungN...)
	r.f, r.ref, err = buildFeed(s, r.seed, nMax, cuts, r.traced)
	return err
}

// outcome records a phase's elements and, on failure, its error.
func (r *run) outcome(what string, n int, err error) bool {
	r.attempted += n
	if err != nil {
		r.failed += n
		r.errs = append(r.errs, fmt.Errorf("%s: %w", what, err))
		r.log("FAIL %s: %v", what, err)
		return false
	}
	return true
}

// measureSetup starts and cleanly stops the workload count times and
// returns each set-up time in seconds.
func (r *run) measureSetup(tr *tracer, count int) ([]float64, error) {
	var ts []float64
	for i := 0; i < count; i++ {
		runtime.GC()
		cons := &consumer{ref: r.ref}
		in, d, err := startInstance(r.spec, r.f, cons, r.rundir, 0, tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, d.Seconds())
		if _, err := in.finish(0); err != nil {
			return nil, fmt.Errorf("empty run: %w", err)
		}
	}
	return ts, nil
}

// closedRep is one closed-loop repetition's measurements.
type closedRep struct {
	eps           float64
	allocs, bytes float64
	heapPeak      float64
	stats         runStats
	// elapsed runs from the first input to the last delivery; ingest is
	// the feeding part of it and drain the Close+Wait span (embedded).
	elapsed, ingest, drain time.Duration
	// skew is the partitioned query's max/mean replica TuplesIn.
	skew float64
}

// closedLoop feeds the whole closed-loop feed as fast as the system
// takes it, into a fresh instance, and waits until every input is
// committed and every output delivered.
func (r *run) closedLoop(tr *tracer, heapPass bool) (closedRep, error) {
	var rep closedRep
	n := r.spec.closedN
	cons := &consumer{ref: r.ref}
	expect := r.ref.at[n].results + r.ref.at[n].puncts
	in, _, err := startInstance(r.spec, r.f, cons, r.rundir, expect, tr)
	if err != nil {
		return rep, err
	}
	obs := newLoadObserver(heapPass)
	runtime.GC()
	a0 := readAllocs()
	t0 := time.Now()
	if r.spec.served {
		err = in.send(n, nil, obs)
		rep.ingest = time.Since(t0)
		if err == nil {
			err = in.awaitServed(60 * time.Second)
		}
	} else {
		endRep, endIngest, endDrain, stopSampler := func() {}, func() {}, func() {}, func() {}
		if tr != nil {
			endRep = tr.span("closed_loop", "")
			endIngest = tr.span("engine.ingest", "closed_loop")
			stopSampler = statsSampler(in.rt, tr)
		}
		err = in.ingest(&sampledReader{f: r.f, n: n, obs: obs})
		rep.ingest = time.Since(t0)
		stopSampler()
		endIngest()
		if err == nil {
			if tr != nil {
				endDrain = tr.span("engine.drain", "closed_loop")
			}
			t1 := time.Now()
			in.rt.Close()
			err = in.rt.Wait()
			rep.drain = time.Since(t1)
			endDrain()
		}
		endRep()
	}
	rep.elapsed = time.Since(t0)
	allocs := readAllocs().since(a0)
	if err != nil {
		in.abandon()
		return rep, err
	}
	rs, err := in.finish(n)
	if err != nil {
		return rep, err
	}
	rep.stats = rs
	rep.eps = float64(n) / rep.elapsed.Seconds()
	rep.allocs = float64(allocs.objs) / float64(n)
	rep.bytes = float64(allocs.bytes) / float64(n)
	rep.heapPeak = float64(obs.heapPeak) / (1 << 20)
	if pt := in.regs[0].Part; pt != nil {
		var max, sum float64
		for p := 0; p < pt.Partitions(); p++ {
			in := 0.0
			for _, s := range pt.Partition(p).StatsSnapshot() {
				for _, v := range s.TuplesIn {
					in += float64(v)
				}
			}
			sum += in
			if in > max {
				max = in
			}
		}
		rep.skew = max / (sum / float64(pt.Partitions()))
	}
	return rep, nil
}

// rungResult is one open-loop ladder rung.
type rungResult struct {
	rate              float64
	p50, p99          float64 // µs
	pp50, pp99        float64 // µs, punctuations
	samples, psamples uint64
	backlogMax        int
	backlog           float64 // median over windows of each window's largest

	lateP99     float64 // µs
	sustainable bool
	mon         *monitor // traced served rungs only
}

// openLoop feeds rung i's prefix on its fixed schedule into a fresh
// instance.
func (r *run) openLoop(i int, tr *tracer) (rungResult, error) {
	rate := r.spec.ladder[i]
	n := r.rungN[i]
	res := rungResult{rate: rate}
	cons := &consumer{ref: r.ref}
	expect := r.ref.at[n].results + r.ref.at[n].puncts
	in, _, err := startInstance(r.spec, r.f, cons, r.rundir, expect, tr)
	if err != nil {
		return res, err
	}
	obs := newLoadObserver(false)
	runtime.GC()
	pace := newPacer(rate, n)
	cons.pace = pace
	timeout := time.Duration(float64(n)/rate*float64(time.Second)) + 60*time.Second
	if r.spec.served {
		if tr != nil {
			res.mon = startMonitor(in, tr)
		}
		err = in.send(n, pace, obs)
		if err == nil {
			err = in.awaitServed(timeout)
		}
		if res.mon != nil {
			res.mon.stop()
		}
	} else {
		err = in.ingest(&pacedReader{f: r.f, n: n, pace: pace, obs: obs, in: in})
	}
	if err != nil {
		in.abandon()
		return res, err
	}
	if _, err := in.finish(n); err != nil {
		return res, err
	}
	res.p50, res.samples = windowed(&cons.lat, 0.5)
	res.p99, _ = windowed(&cons.lat, 0.99)
	res.pp50, res.psamples = windowed(&cons.plat, 0.5)
	res.pp99, _ = windowed(&cons.plat, 0.99)
	res.p50, res.p99, res.pp50, res.pp99 = res.p50/1e3, res.p99/1e3, res.pp50/1e3, res.pp99/1e3
	res.backlogMax, res.backlog = obs.backlogMax(), obs.backlogWindowed()
	res.lateP99 = obs.late.quantile(0.99) / 1e3
	res.sustainable = r.spec.sustainable(res)
	return res, nil
}

// endToEnd runs the untraced phases and returns every end-to-end metric.
// Set-ups, heap passes, closed-loop repetitions and the latency rung's
// passes alternate, so a burst of load from another tenant of the host
// lands on a few of each rather than on the whole of one phase.
func (r *run) endToEnd() (map[string]float64, error) {
	m := map[string]float64{}
	var eps, allocs, byts, state, punct, heap, setup []float64
	var passes []rungResult
	var spent time.Duration
	budget := r.seconds * closedShare * float64(time.Second)
	np := r.spec.passes()
	lr := r.spec.latencyRung
	rep := 0
	for k := 0; k < np; k++ {
		h, err := r.closedLoop(nil, true)
		if !r.outcome(fmt.Sprintf("heap pass %d", k), r.spec.closedN, err) {
			return nil, err
		}
		heap = append(heap, h.heapPeak)
		r.log("heap pass %d: %.3f MiB", k, h.heapPeak)
		share := float64(k+1) / float64(np)
		for rep < (3*(k+1)+np-1)/np || (float64(spent) < budget*share && rep < 50) {
			ts, err := r.measureSetup(nil, setupsPerRep)
			if err != nil {
				return nil, err
			}
			setup = append(setup, ts...)
			t0 := time.Now()
			c, err := r.closedLoop(nil, false)
			spent += time.Since(t0)
			if r.outcome(fmt.Sprintf("closed loop %d", rep), r.spec.closedN, err) {
				r.log("closed loop %d: %.0f elements/s, %.2f allocs/elem, peak state %d", rep, c.eps, c.allocs, c.stats.peakState)
				eps = append(eps, c.eps)
				allocs = append(allocs, c.allocs)
				byts = append(byts, c.bytes)
				state = append(state, float64(c.stats.peakState))
				punct = append(punct, float64(c.stats.peakPunct))
			}
			rep++
		}
		res, err := r.openLoop(lr, nil)
		if !r.outcome(fmt.Sprintf("latency pass %d", k), r.rungN[lr], err) {
			continue
		}
		r.logRung(res)
		passes = append(passes, res)
	}
	m["setup_s"] = median(setup)
	m["heap_peak_mb"] = median(heap)
	m["throughput_eps"] = median(eps)
	m["allocs_per_elem"] = median(allocs)
	m["bytes_per_elem"] = median(byts)
	m["peak_state_tuples"] = median(state)
	m["peak_punct_store"] = median(punct)

	// ok[i] is whether rung i met the latency limit without a growing
	// backlog; rungs above the first failure past the latency rung are
	// skipped.
	ok := make([]bool, len(r.spec.ladder))
	if len(passes) == np {
		lat := r.mergePasses(passes)
		m["latency_p50_us"], m["latency_p99_us"] = lat.p50, lat.p99
		m["punct_latency_p50_us"], m["punct_latency_p99_us"] = lat.pp50, lat.pp99
		ok[lr] = lat.sustainable
	}
	prefix := true
	for i, rate := range r.spec.ladder {
		if i > lr && !prefix {
			break
		}
		if i != lr {
			res, err := r.openLoop(i, nil)
			if r.outcome(fmt.Sprintf("rung %.0f/s", rate), r.rungN[i], err) {
				r.logRung(res)
				ok[i] = res.sustainable
			}
		}
		prefix = prefix && ok[i]
	}
	sustainable := 0.0
	for i, rate := range r.spec.ladder {
		if !ok[i] {
			break
		}
		sustainable = rate
	}
	m["sustainable_rate_eps"] = sustainable
	return m, nil
}

func (r *run) logRung(res rungResult) {
	r.log("rung %.0f/s: p50 %.0fµs p99 %.0fµs (%d samples), punct p50 %.0fµs p99 %.0fµs (%d), backlog max %d windowed %.0f, generator late p99 %.0fµs, sustainable %v",
		res.rate, res.p50, res.p99, res.samples, res.pp50, res.pp99, res.psamples, res.backlogMax, res.backlog, res.lateP99, res.sustainable)
}

// mergePasses combines the latency rung's passes: each latency figure
// and the backlog are medians over the passes.
func (r *run) mergePasses(passes []rungResult) rungResult {
	res := rungResult{rate: passes[0].rate}
	var p50, p99, pp50, pp99, backlog []float64
	for _, p := range passes {
		p50, p99 = append(p50, p.p50), append(p99, p.p99)
		pp50, pp99 = append(pp50, p.pp50), append(pp99, p.pp99)
		backlog = append(backlog, p.backlog)
	}
	res.p50, res.p99, res.pp50, res.pp99 = median(p50), median(p99), median(pp50), median(pp99)
	res.backlog = median(backlog)
	res.sustainable = r.spec.sustainable(res)
	return res
}
