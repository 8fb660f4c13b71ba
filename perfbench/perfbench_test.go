package main

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"punctsafe/engine"
	"punctsafe/stream"
)

// small shrinks a workload to a smoke-test size: a short closed-loop
// feed and the two lowest ladder rungs.
func small(w *workloadSpec) *workloadSpec {
	s := *w
	s.closedN = 6000 // probe-wide punctuates its first block after 4 blocks
	s.ladder = s.ladder[:2]
	s.latencyRung = 0
	s.checkpointEvery = 1000
	return &s
}

func newTestRun(t *testing.T, spec *workloadSpec, traced bool) *run {
	t.Helper()
	r := &run{spec: spec, seed: 7, seconds: 0.3, traced: traced, rundir: t.TempDir(), log: t.Logf}
	if err := r.prepare(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				r := newTestRun(t, small(w), traced)
				defs, m, err := endToEndMetrics, map[string]float64(nil), error(nil)
				if traced {
					defs = perLayerMetrics
					m, err = r.perLayer()
				} else {
					m, err = r.endToEnd()
				}
				if err != nil || len(r.errs) > 0 {
					t.Fatalf("traced=%v: %v %v", traced, err, r.errs)
				}
				for _, d := range defs {
					v, ok := m[d.Name]
					if d.Name == "failed_frac" {
						continue
					}
					if !ok && !traced {
						t.Errorf("metric %s missing", d.Name)
					}
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s = %v", d.Name, v)
					}
				}
				if !traced {
					for _, name := range []string{"throughput_eps", "sustainable_rate_eps", "latency_p99_us", "peak_state_tuples", "setup_s"} {
						if m[name] <= 0 {
							t.Errorf("%s = %v, want > 0", name, m[name])
						}
					}
				}
			}
		})
	}
}

// referenceOutputs replays a feed sequentially and hands every output
// to each consumer through fn, so tests can tamper with one stream.
func referenceOutputs(t *testing.T, spec *workloadSpec, f *feed, fn func(i int, e stream.Element)) {
	t.Helper()
	d := engine.New()
	q, schemes := spec.query()
	for _, s := range schemes.All() {
		d.RegisterScheme(s)
	}
	i := 0
	opts := spec.options()
	opts.OnResult = func(tu stream.Tuple) { fn(i, stream.TupleElement(tu)); i++ }
	opts.OnPunct = func(p stream.Punctuation) { fn(i, stream.PunctElement(p)); i++ }
	if _, err := d.Register("q", q, opts); err != nil {
		t.Fatal(err)
	}
	for _, fe := range f.elems {
		if err := d.Push(fe.stream, fe.e); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOracleRejectsTamperedDelivery(t *testing.T) {
	spec := small(workloadByName("purge-dense"))
	f, ref, err := buildFeed(spec, 3, 2000, []int{2000}, true)
	if err != nil {
		t.Fatal(err)
	}
	n := len(f.elems)
	// Each case builds the delivery path for one consumer; the outputs
	// arrive numbered from 0 in reference order.
	cases := map[string]func(c *consumer) func(i int, e stream.Element){
		"intact": func(c *consumer) func(int, stream.Element) {
			return func(i int, e stream.Element) { c.delivery(uint64(i+1), e) }
		},
		"dropped result": func(c *consumer) func(int, stream.Element) {
			dropped := false
			return func(i int, e stream.Element) {
				if !dropped && !e.IsPunct() && i >= 10 {
					dropped = true
					return
				}
				c.element(e)
			}
		},
		"duplicated result": func(c *consumer) func(int, stream.Element) {
			dup := false
			return func(i int, e stream.Element) {
				c.element(e)
				if !dup && !e.IsPunct() && i >= 10 {
					dup = true
					c.element(e)
				}
			}
		},
		"altered result": func(c *consumer) func(int, stream.Element) {
			done := false
			return func(i int, e stream.Element) {
				if !done && !e.IsPunct() && i >= 10 {
					done = true
					vals := append([]stream.Value(nil), e.Tuple().Values...)
					col := ref.shape.stamps[1]
					vals[col] = stream.Int(vals[col].AsInt() + 1)
					e = stream.TupleElement(stream.NewTuple(vals...))
				}
				c.element(e)
			}
		},
		"dropped punctuation": func(c *consumer) func(int, stream.Element) {
			dropped := false
			return func(i int, e stream.Element) {
				if !dropped && e.IsPunct() && i >= 10 {
					dropped = true
					return
				}
				c.element(e)
			}
		},
		"sequence gap": func(c *consumer) func(int, stream.Element) {
			return func(i int, e stream.Element) {
				seq := uint64(i + 1)
				if i >= 20 {
					seq++
				}
				c.delivery(seq, e)
			}
		},
	}
	for name, build := range cases {
		c := &consumer{ref: ref}
		referenceOutputs(t, spec, f, build(c))
		err := c.check(n)
		if name == "intact" {
			if err != nil {
				t.Errorf("intact stream rejected: %v", err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: oracle accepted a tampered delivery stream", name)
		}
	}
}

// TestRunRejectsTamperedDelivery checks the same oracle at the end of a
// real embedded run.
func TestRunRejectsTamperedDelivery(t *testing.T) {
	r := newTestRun(t, small(workloadByName("purge-dense")), false)
	n := r.spec.closedN
	cons := &consumer{ref: r.ref}
	in, _, err := startInstance(r.spec, r.f, cons, r.rundir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ingest(bytes.NewReader(r.f.wire[:r.f.ends[n-1]])); err != nil {
		t.Fatal(err)
	}
	in.rt.Close()
	if err := in.rt.Wait(); err != nil {
		t.Fatal(err)
	}
	cons.dig.results-- // as if one result had been lost in delivery
	if _, err := in.finish(n); err == nil {
		t.Fatal("finish accepted a run with a missing result")
	}
}

// TestBoundTripsWithoutClosePunctuations withholds the bid-stream
// punctuations that close auctions. The query is still safe under the
// registered schemes, but the feed never exercises the bid scheme, so
// item tuples are never purged and join state grows with the feed, as
// Theorem 1 predicts; the bounded-state check must fail the run.
func TestBoundTripsWithoutClosePunctuations(t *testing.T) {
	params := purgeDenseParams
	params.WithholdClose = true
	spec := small(workloadByName("purge-dense"))
	spec.gen = func(seed int64, em *emitter) { genAuction(seed, params, em) }
	r := newTestRun(t, spec, false)
	_, err := r.closedLoop(nil, false)
	if err == nil || !strings.Contains(err.Error(), "exceeds the bound") {
		t.Fatalf("closed loop without close punctuations: err = %v, want a state-bound violation", err)
	}

	// The same feed with its close punctuations passes.
	r = newTestRun(t, small(workloadByName("purge-dense")), false)
	if _, err := r.closedLoop(nil, false); err != nil {
		t.Fatal(err)
	}
}

func TestManifestUpToDate(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with: go -C perfbench run . -manifest > BENCHMARK.json")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for i := 1; i <= 10000; i++ {
		h.add(time.Duration(i * 1000))
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 5e6}, {0.99, 9.9e6}} {
		if got := h.quantile(c.q); math.Abs(got-c.want)/c.want > 0.02 {
			t.Errorf("quantile(%v) = %v, want %v within 2%%", c.q, got, c.want)
		}
	}
}
