package engine

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"punctsafe/stream"
	"punctsafe/workload"
)

// auctionElems builds the closed per-item element group feeding the
// auction join: the item, its bids, and the closing punctuations on both
// streams. Groups for distinct ids are join-independent, so any
// interleaving of whole groups yields the same result multiset.
func auctionElems(id int64, bids int) []TaggedElement {
	var out []TaggedElement
	out = append(out, TaggedElement{"item", stream.TupleElement(stream.NewTuple(
		stream.Int(1), stream.Int(id), stream.Str("x"), stream.Float(1)))})
	for b := 0; b < bids; b++ {
		out = append(out, TaggedElement{"bid", stream.TupleElement(stream.NewTuple(
			stream.Int(int64(b)), stream.Int(id), stream.Float(float64(b))))})
	}
	out = append(out, TaggedElement{"bid", stream.PunctElement(stream.MustPunctuation(
		stream.Wildcard(), stream.Const(stream.Int(id)), stream.Wildcard()))})
	out = append(out, TaggedElement{"item", stream.PunctElement(stream.MustPunctuation(
		stream.Wildcard(), stream.Const(stream.Int(id)), stream.Wildcard(), stream.Wildcard()))})
	return out
}

// newAuctionDSMS registers the auction schemes and n copies of the
// auction query named q0..q<n-1>.
func newAuctionDSMS(t testing.TB, n int) (*DSMS, []*Registered) {
	t.Helper()
	d := New()
	d.RegisterScheme(stream.MustScheme("item", false, true, false, false))
	d.RegisterScheme(stream.MustScheme("bid", false, true, false))
	regs := make([]*Registered, n)
	for i := range regs {
		reg, err := d.Register(fmt.Sprintf("q%d", i), workload.AuctionQuery(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		regs[i] = reg
	}
	return d, regs
}

func sortedResults(reg *Registered) []string {
	out := make([]string, len(reg.Results))
	for i, r := range reg.Results {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// TestShardedStressMatchesSequential is the concurrency stress test: many
// producer goroutines feed several registered queries through the sharded
// runtime; each query's merged result multiset must equal a sequential
// reference run's. Run under -race this also exercises the stats/result
// confinement of the shard workers.
func TestShardedStressMatchesSequential(t *testing.T) {
	const producers = 8
	const itemsPer = 40
	const bidsPer = 5
	const queries = 3

	// Sequential reference: same element groups, producer-major order.
	ref, refRegs := newAuctionDSMS(t, queries)
	for p := 0; p < producers; p++ {
		for i := 0; i < itemsPer; i++ {
			for _, te := range auctionElems(int64(p*itemsPer+i), bidsPer) {
				if err := ref.Push(te.Stream, te.Elem); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}

	d, regs := newAuctionDSMS(t, queries)
	rt := d.RunSharded(RuntimeOptions{Buffer: 8})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < itemsPer; i++ {
				for _, te := range auctionElems(int64(p*itemsPer+i), bidsPer) {
					if err := rt.Send(te.Stream, te.Elem); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(p)
	}
	wg.Wait()
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}

	want := producers * itemsPer * bidsPer
	for i, reg := range regs {
		if got := len(reg.Results); got != want {
			t.Fatalf("query %d: results = %d, want %d", i, got, want)
		}
		if got, wantRef := sortedResults(reg), sortedResults(refRegs[i]); !equalStrings(got, wantRef) {
			t.Fatalf("query %d: sharded result multiset differs from sequential reference", i)
		}
		if reg.Tree.TotalState() != 0 {
			t.Fatalf("query %d: state = %d, want 0", i, reg.Tree.TotalState())
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardedErrorPropagates: a malformed element fails only its shard;
// the error surfaces immediately from Err, FailFast Sends start
// returning it, the failed shard drains without wedging producers, and
// healthy shards keep delivering.
func TestShardedErrorPropagates(t *testing.T) {
	d, regs := newAuctionDSMS(t, 2)
	rt := d.RunSharded(RuntimeOptions{Buffer: 1, FailFast: true})

	// Wrong arity for the item stream: every shard consuming "item" fails.
	bad := stream.TupleElement(stream.NewTuple(stream.Int(1)))
	if err := rt.Send("item", bad); err != nil {
		t.Fatalf("routing itself must not fail: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("Err() never surfaced the shard failure")
		}
		time.Sleep(time.Millisecond)
	}
	// FailFast: Send now reports the first error instead of queueing.
	if err := rt.Send("item", bad); err == nil {
		t.Fatal("FailFast Send should return the runtime error")
	}
	rt.Close()
	if err := rt.Wait(); err == nil {
		t.Fatal("Wait must return the first error")
	}
	_ = regs
}

// TestShardedDrainKeepsFeeding: without FailFast a shard failure drains
// quietly — producers keep sending far past the failed element and never
// block, and the error still comes out of Wait.
func TestShardedDrainKeepsFeeding(t *testing.T) {
	d, _ := newAuctionDSMS(t, 1)
	rt := d.RunSharded(RuntimeOptions{Buffer: 1})
	bad := stream.TupleElement(stream.NewTuple(stream.Int(1)))
	for i := 0; i < 200; i++ {
		if err := rt.Send("item", bad); err != nil {
			t.Fatal(err)
		}
	}
	rt.Close()
	if err := rt.Wait(); err == nil {
		t.Fatal("expected the malformed element's error")
	}
	if err := rt.Send("item", bad); err == nil {
		t.Fatal("Send after Close must error")
	}
	// Wire ingest after Close names the API that was called and commits
	// no offset.
	item, _ := workload.AuctionSchemas()
	var frame bytes.Buffer
	if err := NewWireWriter(&frame, item).Write("item", stream.TupleElement(stream.NewTuple(
		stream.Int(1), stream.Int(2), stream.Str("x"), stream.Float(1)))); err != nil {
		t.Fatal(err)
	}
	before := rt.ResumeOffset("wire")
	if _, err := rt.IngestWireResume("wire", &frame, item); err == nil {
		t.Fatal("IngestWireResume after Close must error")
	} else if !strings.Contains(err.Error(), "IngestWireResume after Close") {
		t.Fatalf("after-Close error %q does not name IngestWireResume", err)
	}
	if got := rt.ResumeOffset("wire"); got != before {
		t.Fatalf("ResumeOffset moved after Close: %d, want %d", got, before)
	}
}

// TestShardedStatsSnapshot: the mailbox-routed snapshot reflects every
// element enqueued before the request, and the post-drain path reads the
// final counters.
func TestShardedStatsSnapshot(t *testing.T) {
	d, _ := newAuctionDSMS(t, 1)
	rt := d.RunSharded(RuntimeOptions{})
	const items = 30
	const bids = 3
	for i := 0; i < items; i++ {
		for _, te := range auctionElems(int64(i), bids) {
			if err := rt.Send(te.Stream, te.Elem); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats, err := rt.Stats("q0")
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Fatalf("operators = %d", len(stats))
	}
	// The request is queued behind every element sent above, so the
	// snapshot must account for all of them.
	if got, want := stats[0].TuplesIn[0], uint64(items); got != want {
		t.Fatalf("snapshot TuplesIn[item] = %d, want %d", got, want)
	}
	if got, want := stats[0].Results, uint64(items*bids); got != want {
		t.Fatalf("snapshot Results = %d, want %d", got, want)
	}
	// Detached: mutating the snapshot must not touch the live operator.
	stats[0].TuplesIn[0] = 999
	rt.Close()
	after, err := rt.Stats("q0")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := after[0].TuplesIn[0], uint64(items); got != want {
		t.Fatalf("post-drain TuplesIn[item] = %d, want %d", got, want)
	}
	if _, err := rt.Stats("nope"); err == nil {
		t.Fatal("Stats of unknown query must fail")
	}
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedWireIngest routes a binary wire feed through the sharded
// runtime and checks it against the sequential DSMS.IngestWire path.
func TestShardedWireIngest(t *testing.T) {
	itemSchema := workload.AuctionQuery().Stream(0)
	bidSchema := workload.AuctionQuery().Stream(1)
	var buf bytes.Buffer
	ww := NewWireWriter(&buf, itemSchema, bidSchema)
	const items = 25
	for i := 0; i < items; i++ {
		for _, te := range auctionElems(int64(i), 2) {
			if err := ww.Write(te.Stream, te.Elem); err != nil {
				t.Fatal(err)
			}
		}
	}
	wire := buf.Bytes()

	ref, refRegs := newAuctionDSMS(t, 2)
	if _, err := ref.IngestWire(bytes.NewReader(wire), itemSchema, bidSchema); err != nil {
		t.Fatal(err)
	}

	d, regs := newAuctionDSMS(t, 2)
	rt := d.RunSharded(RuntimeOptions{})
	n, err := rt.IngestWireResume("wire", bytes.NewReader(wire), itemSchema, bidSchema)
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if want := items * 5; n != want {
		t.Fatalf("routed %d elements, want %d", n, want)
	}
	for i := range regs {
		if !equalStrings(sortedResults(regs[i]), sortedResults(refRegs[i])) {
			t.Fatalf("query %d: wire-ingested results differ from sequential path", i)
		}
	}
}

// TestShardedRouting: a query subscribes only to its own streams; shards
// of unrelated queries never see the element.
func TestShardedRouting(t *testing.T) {
	d := New()
	d.RegisterScheme(stream.MustScheme("item", false, true, false, false))
	d.RegisterScheme(stream.MustScheme("bid", false, true, false))
	for _, s := range workload.NetMonSchemes().All() {
		d.RegisterScheme(s)
	}
	auc, err := d.Register("auction", workload.AuctionQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	net, err := d.Register("netmon", workload.NetMonQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt := d.RunSharded(RuntimeOptions{})
	for _, te := range auctionElems(7, 3) {
		if err := rt.Send(te.Stream, te.Elem); err != nil {
			t.Fatal(err)
		}
	}
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(auc.Results) != 3 {
		t.Fatalf("auction results = %d, want 3", len(auc.Results))
	}
	netStats, err := rt.Stats("netmon")
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range netStats {
		for i := range st.TuplesIn {
			if st.TuplesIn[i] != 0 || st.PunctsIn[i] != 0 {
				t.Fatalf("netmon shard saw auction traffic: %v", st)
			}
		}
	}
	_ = net
}
