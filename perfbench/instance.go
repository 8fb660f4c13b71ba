package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"punctsafe/engine"
	"punctsafe/server"
	"punctsafe/stream"
)

const source = "src"

// instance is one deployment of a workload's query, fresh for every
// closed-loop repetition and ladder rung: an embedded runtime, or a
// server with one producer and one subscriber connection.
type instance struct {
	spec *workloadSpec
	f    *feed
	cons *consumer
	tr   *tracer // nil in untraced runs

	d    *engine.DSMS
	rt   *engine.Runtime
	regs []*engine.Registered

	srv      *server.Server
	prod     *server.Producer
	sub      *server.Subscriber
	dir      string
	reached  chan struct{} // closed once the subscriber has every expected delivery
	subDone  chan error
	ckptReq  chan struct{}
	ckptDone chan error
	// ckptBusy is set while a checkpoint runs; heap samples skip those
	// moments, so the transient snapshot buffer (whose size
	// server.checkpoint_bytes reports) does not decide the peak by
	// timing alone.
	ckptBusy atomic.Bool
}

// viewName names the i-th Share-equal registration; view0 is read.
func viewName(i int) string { return fmt.Sprintf("view%d", i) }

// register admits the workload's views on d. Every view gets a delivery
// hook, as the server's hubs do; only view0 feeds the consumer.
func (in *instance) register(d *engine.DSMS) error {
	q, schemes := in.spec.query()
	for _, s := range schemes.All() {
		d.RegisterScheme(s)
	}
	in.regs = in.regs[:0]
	for v := 0; v < in.spec.views; v++ {
		r, err := d.Register(viewName(v), q, in.spec.options())
		if err != nil {
			return err
		}
		in.regs = append(in.regs, r)
	}
	in.d = d
	return nil
}

// startInstance sets the workload up until it is ready to ingest and
// returns the set-up time. expect is the number of deliveries the
// subscriber must see (served workloads only).
func startInstance(spec *workloadSpec, f *feed, cons *consumer, rundir string, expect uint64, tr *tracer) (*instance, time.Duration, error) {
	in := &instance{spec: spec, f: f, cons: cons, tr: tr}
	if !spec.served {
		t0 := time.Now()
		if err := in.register(engine.New()); err != nil {
			return nil, 0, err
		}
		in.regs[0].SetDeliveryHook(cons.delivery)
		for _, r := range in.regs[1:] {
			r.SetDeliveryHook(func(uint64, stream.Element) {})
		}
		in.rt = in.d.RunSharded(engine.RuntimeOptions{})
		return in, time.Since(t0), nil
	}
	dir, err := os.MkdirTemp(rundir, "srv")
	if err != nil {
		return nil, 0, err
	}
	in.dir = dir
	sock, err := socketPath(filepath.Join(dir, "s.sock"))
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	l, err := net.Listen("unix", sock)
	if err != nil {
		return nil, 0, err
	}
	cfg := server.Config{
		Listener:       l,
		Build:          in.register,
		Schemas:        f.schemas,
		CheckpointPath: filepath.Join(dir, "ckpt"),
	}
	if tr != nil {
		cfg.Runtime.IngestTap = func(_ string, _ []byte, _, end int64) { tr.committed(end) }
	}
	in.srv, err = server.New(cfg)
	if err != nil {
		l.Close()
		return nil, 0, err
	}
	tServer := time.Now()
	dialer := &server.Dialer{Addr: "unix://" + sock}
	if in.prod, err = dialer.Producer(source, f.schemas...); err == nil {
		in.sub, err = dialer.Subscribe(viewName(0))
	}
	if err != nil {
		in.srv.Kill()
		return nil, 0, err
	}
	setup := time.Since(t0)
	if tr != nil {
		tr.add("setup.server_start", tServer.Sub(t0))
		tr.add("setup.connect", setup-tServer.Sub(t0))
	}
	in.reached = make(chan struct{})
	in.subDone = make(chan error, 1)
	go in.subscribe(expect)
	in.ckptReq = make(chan struct{}, len(f.ends)/spec.checkpointEvery+1)
	in.ckptDone = make(chan error, 1)
	go in.checkpointer(in.ckptReq)
	return in, setup, nil
}

// socketPath shortens an absolute socket path to one relative to the
// working directory: unix socket paths are limited to about 100 bytes.
func socketPath(p string) (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	abs, err := filepath.Abs(p)
	if err != nil {
		return "", err
	}
	return filepath.Rel(wd, abs)
}

func (in *instance) subscribe(expect uint64) {
	if expect == 0 {
		close(in.reached)
	}
	for {
		d, err := in.sub.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = nil
			}
			in.subDone <- err
			return
		}
		in.cons.delivery(d.Seq, d.Elem)
		if in.tr != nil {
			in.tr.subLast.Store(d.Seq)
		}
		if in.cons.seq == expect {
			close(in.reached)
		}
	}
}

// checkpointer runs the checkpoints the feeder requests, off the load
// goroutine, one at a time.
func (in *instance) checkpointer(req <-chan struct{}) {
	var first error
	for range req {
		in.ckptBusy.Store(true)
		t0 := time.Now()
		err := in.srv.CheckpointNow()
		in.ckptBusy.Store(false)
		if in.tr != nil {
			in.tr.add("server.checkpoint", time.Since(t0))
			if fi, serr := os.Stat(filepath.Join(in.dir, "ckpt")); serr == nil {
				in.tr.count("server.checkpoint_bytes", float64(fi.Size()))
			}
		}
		if err != nil && first == nil {
			first = err
		}
	}
	in.ckptDone <- first
}

// ingest feeds an embedded instance from r.
func (in *instance) ingest(r io.Reader) error {
	_, err := in.rt.IngestWireResume(source, r, in.f.schemas...)
	return err
}

// send feeds the first n elements to a served instance through the
// producer, paced when pace is set, flushing after every released group
// of due elements (or once at the end in a closed loop). It requests a
// checkpoint every checkpointEvery elements.
func (in *instance) send(n int, pace *pacer, obs *loadObserver) error {
	every := in.spec.checkpointEvery
	// Elements are decoded from the feed's wire form as they are sent,
	// so the generator holds no pointer-rich copy of the feed for the
	// garbage collector to scan during the measurement.
	wr := engine.NewWireReader(bytes.NewReader(in.f.wire), in.f.schemas...)
	i := 0
	for i < n {
		end := n
		if pace != nil {
			end = obs.wait(pace, i, n, in.committed)
		}
		for ; i < end; i++ {
			te, err := wr.Read()
			if err != nil {
				return fmt.Errorf("feed element %d: %w", i, err)
			}
			var t0 time.Time
			if in.tr != nil {
				t0 = time.Now()
			}
			if err := in.prod.Send(te.Stream, te.Elem); err != nil {
				return err
			}
			if in.tr != nil {
				in.tr.add("server.send", time.Since(t0))
			}
			if (i+1)%every == 0 {
				in.ckptReq <- struct{}{}
			}
			if (i+1)%heapSampleEvery == 0 && !in.ckptBusy.Load() {
				obs.sampleHeap()
			}
		}
		if pace != nil || i == n {
			if err := in.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (in *instance) flush() error {
	if in.tr == nil {
		return in.prod.Flush()
	}
	t0 := time.Now()
	err := in.prod.Flush()
	in.tr.flushed(t0, time.Now(), in.prod.Sent())
	return err
}

// committed is how many input elements the runtime has committed.
func (in *instance) committed() int {
	rt := in.rt
	if in.srv != nil {
		rt = in.srv.Runtime()
	}
	return in.f.elemsAt(rt.ResumeOffset(source))
}

// awaitServed blocks until a served instance has committed every sent
// byte, delivered every expected output and finished its checkpoints.
func (in *instance) awaitServed(timeout time.Duration) error {
	deadline := time.After(timeout)
	select {
	case <-in.reached:
	case err := <-in.subDone:
		in.subDone <- err
		return fmt.Errorf("subscriber ended early: %v", err)
	case <-deadline:
		return errors.New("timed out waiting for deliveries")
	}
	for in.srv.Runtime().ResumeOffset(source) != in.prod.Sent() {
		select {
		case <-deadline:
			return errors.New("timed out waiting for commits")
		default:
			time.Sleep(20 * time.Microsecond)
		}
	}
	close(in.ckptReq)
	in.ckptReq = nil
	return <-in.ckptDone
}

// runStats is what an instance reports when it ends.
type runStats struct {
	peakState, peakPunct int
	deadLetters          int
	delivered            []uint64
}

// finish drains and tears the instance down, then checks the run: the
// delivery stream against the reference, every element committed,
// every view delivered alike, no dead letters, and peak join state
// within the workload's bound.
func (in *instance) finish(n int) (runStats, error) {
	var rs runStats
	var runErr error
	rt := in.rt
	if in.srv != nil {
		rt = in.srv.Runtime()
		if in.ckptReq != nil {
			close(in.ckptReq)
			if err := <-in.ckptDone; err != nil {
				runErr = err
			}
		}
	}
	stats, err := rt.Stats(viewName(0))
	if err != nil && runErr == nil {
		runErr = err
	}
	for _, s := range stats {
		rs.peakState += s.MaxStateSize
		rs.peakPunct += s.MaxPunctStoreSize
	}
	committed := in.committed()
	if in.srv != nil {
		in.prod.Close()
		if err := in.srv.Shutdown(); err != nil && runErr == nil {
			runErr = err
		}
		if err := <-in.subDone; err != nil && runErr == nil {
			runErr = fmt.Errorf("subscriber: %w", err)
		}
		in.sub.Close()
		os.RemoveAll(in.dir)
	} else {
		rt.Close()
		if err := rt.Wait(); err != nil && runErr == nil {
			runErr = err
		}
	}
	rs.deadLetters = int(rt.DeadLetters().Total)
	for _, r := range in.regs {
		rs.delivered = append(rs.delivered, r.Delivered())
	}
	if runErr != nil {
		return rs, runErr
	}
	return rs, in.verify(n, rs, committed)
}

func (in *instance) verify(n int, rs runStats, committed int) error {
	if committed != n {
		return fmt.Errorf("%d of %d elements committed", committed, n)
	}
	if rs.deadLetters != 0 {
		return fmt.Errorf("%d dead letters", rs.deadLetters)
	}
	for v, got := range rs.delivered {
		if got != rs.delivered[0] {
			return fmt.Errorf("view %d delivered %d, view 0 delivered %d", v, got, rs.delivered[0])
		}
	}
	if err := in.cons.check(n); err != nil {
		return err
	}
	if rs.peakState > in.spec.stateBound {
		return fmt.Errorf("peak join state %d tuples exceeds the bound %d for a safe plan on this feed", rs.peakState, in.spec.stateBound)
	}
	return nil
}

// abandon tears down an instance after a failure without checks.
func (in *instance) abandon() {
	if in.srv != nil {
		in.srv.Kill()
		if in.ckptReq != nil {
			close(in.ckptReq)
			<-in.ckptDone
		}
		in.sub.Close()
		<-in.subDone
		os.RemoveAll(in.dir)
		return
	}
	in.rt.Close()
	in.rt.Wait()
}

const heapSampleEvery = 2048

// loadObserver samples what the load side sees: in a heap pass, the live
// heap at a fixed element cadence; in open-loop runs, how late the
// generator released each group and how far commits trail the schedule.
type loadObserver struct {
	// heapPass makes every sample collect garbage first, so the live
	// heap it reads is exact rather than as of the last GC cycle.
	heapPass bool
	heapBase uint64
	heapPeak uint64
	sample   []metrics.Sample
	late     histogram
	// backlog is the largest commit backlog seen in each window of the
	// schedule (see pacer.window).
	backlog [latencyWindows]int
}

func newLoadObserver(heapPass bool) *loadObserver {
	o := &loadObserver{heapPass: heapPass, sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	if heapPass {
		o.heapBase = o.liveHeap()
	}
	return o
}

func (o *loadObserver) liveHeap() uint64 {
	runtime.GC()
	metrics.Read(o.sample)
	return o.sample[0].Value.Uint64()
}

// sampleHeap records the live heap above the level before the pass: the
// memory the system under test holds, not the benchmark's own feed.
func (o *loadObserver) sampleHeap() {
	if !o.heapPass {
		return
	}
	if v := o.liveHeap(); v > o.heapBase && v-o.heapBase > o.heapPeak {
		o.heapPeak = v - o.heapBase
	}
}

// wait sleeps until element i is due, then returns the end of the group
// of elements due now (at most n). It records the generator's lateness
// and the commit backlog.
func (o *loadObserver) wait(p *pacer, i, n int, committed func() int) int {
	due := p.due(i)
	sleepUntil(due)
	now := time.Now()
	o.late.add(now.Sub(due))
	end := p.dueBy(now)
	if end > n {
		end = n
	}
	if b, w := end-committed(), p.window(i); b > o.backlog[w] {
		o.backlog[w] = b
	}
	return end
}

// backlogMax is the largest commit backlog over the whole schedule.
func (o *loadObserver) backlogMax() int { return slices.Max(o.backlog[:]) }

// backlogWindowed is the median over the windows of each window's
// largest backlog. A backlog that grows over the run raises most
// windows; a single stall of the host raises one.
func (o *loadObserver) backlogWindowed() float64 {
	var bs []float64
	for _, b := range o.backlog {
		bs = append(bs, float64(b))
	}
	return median(bs)
}

// sleepUntil blocks until t in nanosleep system calls, which wake
// within tens of microseconds. time.Sleep's timers can fire a millisecond
// late, which would swamp the latencies measured; a spin would take a CPU
// from the system under test and, on the served workload, keep the
// scheduler from polling the network.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is resumed by the loop
	}
}

// pacedReader releases an embedded instance's wire bytes on an open-loop
// schedule. Before blocking for the next due element it returns
// engine.ErrWouldBlock once, so the runtime commits what it has — the
// same contract the server's connection reader keeps.
type pacedReader struct {
	f        *feed
	n        int
	pace     *pacer
	obs      *loadObserver
	in       *instance
	pos      int64 // bytes handed out
	released int   // elements released
	signaled bool
}

func (r *pacedReader) Read(p []byte) (int, error) {
	limit := r.limit()
	if r.pos == limit {
		if r.released == r.n {
			return 0, io.EOF
		}
		if !r.signaled {
			r.signaled = true
			return 0, engine.ErrWouldBlock
		}
		r.released = r.obs.wait(r.pace, r.released, r.n, r.in.committed)
		limit = r.limit()
	}
	r.signaled = false
	m := copy(p, r.f.wire[r.pos:limit])
	r.pos += int64(m)
	return m, nil
}

func (r *pacedReader) limit() int64 {
	if r.released == 0 {
		return 0
	}
	return r.f.ends[r.released-1]
}

// sampledReader hands out a closed-loop wire buffer, sampling the live
// heap every heapSampleEvery elements.
type sampledReader struct {
	f    *feed
	n    int
	obs  *loadObserver
	pos  int64
	next int // element index of the next sample
}

func (r *sampledReader) Read(p []byte) (int, error) {
	end := r.f.ends[r.n-1]
	if r.pos == end {
		return 0, io.EOF
	}
	if r.next < r.n && r.pos >= r.f.ends[r.next] {
		r.obs.sampleHeap()
		r.next += heapSampleEvery
	}
	stop := end
	if r.next < r.n && r.f.ends[r.next] < stop {
		stop = r.f.ends[r.next]
	}
	m := copy(p, r.f.wire[r.pos:stop])
	r.pos += int64(m)
	return m, nil
}

// allocCounter measures process-wide heap allocations over an interval.
type allocCounter struct{ objs, bytes uint64 }

func readAllocs() allocCounter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounter{objs: ms.Mallocs, bytes: ms.TotalAlloc}
}

func (a allocCounter) since(b allocCounter) allocCounter {
	return allocCounter{objs: a.objs - b.objs, bytes: a.bytes - b.bytes}
}
