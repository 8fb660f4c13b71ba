package exec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"punctsafe/query"
	"punctsafe/safety"
	"punctsafe/stream"
	"punctsafe/workload"
)

// randomClosedScenario builds a random safe query, its scheme set, and a
// closed workload whose punctuation promises hold by construction.
func randomClosedScenario(rng *rand.Rand) (*query.CJQ, *stream.SchemeSet, []workload.Input) {
	topos := []workload.Topology{workload.Chain, workload.Cycle, workload.Star, workload.Clique}
	topo := topos[rng.Intn(len(topos))]
	k := 2 + rng.Intn(3)
	q, err := workload.SyntheticQuery(topo, k)
	if err != nil {
		panic(err)
	}
	full := workload.AllJoinAttrSchemes(q)
	// Sometimes run with the minimal strongly-connecting subset instead.
	set := full
	if rng.Intn(2) == 0 {
		set = workload.MinimalSchemes(q, full)
	}
	inputs := workload.Closed(q, set, workload.ClosedConfig{
		Rounds:         3 + rng.Intn(5),
		TuplesPerRound: 2 + rng.Intn(5),
		Window:         2 + rng.Intn(3),
		PunctFraction:  1,
		Seed:           rng.Int63(),
	})
	// Shuffle tuples within a small horizon to vary interleaving without
	// violating punctuation promises (tuples stay within their round,
	// before the round's punctuations).
	return q, set, inputs
}

// runResults drives a feed through an MJoin and returns the sorted result
// keys and the operator.
func runResults(t *testing.T, q *query.CJQ, set *stream.SchemeSet, cfg Config, inputs []workload.Input) ([]string, *MJoin) {
	t.Helper()
	cfg.Query = q
	cfg.Schemes = set
	m, err := NewMJoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed, err := workload.NewFeed(q, inputs)
	if err != nil {
		t.Fatal(err)
	}
	var results []string
	if err := feed.Each(func(i int, e stream.Element) error {
		outs, err := m.Push(i, e)
		for _, o := range outs {
			if !o.IsPunct() {
				results = append(results, o.Tuple().String())
			}
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	sort.Strings(results)
	return results, m
}

// TestRandomizedPurgeEquivalence is the central runtime soundness check:
// on random closed scenarios, purging (eager, lazy, with punctuation
// purging, with drop-at-insertion) never changes the emitted result
// multiset relative to the purge-disabled baseline, and the safe query's
// state always drains to zero.
func TestRandomizedPurgeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 60; trial++ {
		q, set, inputs := randomClosedScenario(rng)
		baseline, _ := runResults(t, q, set, Config{DisablePurge: true}, inputs)

		for _, cfg := range []Config{
			{},                        // eager
			{PurgeBatch: 7},           // lazy, odd batch
			{PurgeBatch: 1 << 20},     // everything deferred to Flush
			{PurgePunctuations: true}, // §5.1 store purging on
			{PurgeBatch: 16, PurgePunctuations: true},
		} {
			got, m := runResults(t, q, set, cfg, inputs)
			if len(got) != len(baseline) {
				t.Fatalf("trial %d (%s, cfg %+v): %d results, baseline %d",
					trial, q, cfg, len(got), len(baseline))
			}
			for i := range got {
				if got[i] != baseline[i] {
					t.Fatalf("trial %d: result %d differs: %s vs %s", trial, i, got[i], baseline[i])
				}
			}
			if m.Stats().TotalState() != 0 {
				t.Fatalf("trial %d (%s, cfg %+v): state did not drain: %v",
					trial, q, cfg, m.Stats().StateSize)
			}
		}
	}
}

// TestRandomizedSweepEquivalence: deferring all purging and then sweeping
// reaches exactly the eager end state on random scenarios.
func TestRandomizedSweepEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 40; trial++ {
		q, set, inputs := randomClosedScenario(rng)
		_, eager := runResults(t, q, set, Config{}, inputs)

		cfg := Config{Query: q, Schemes: set, PurgeBatch: 1 << 30}
		m, err := NewMJoin(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feed, _ := workload.NewFeed(q, inputs)
		if err := feed.Each(func(i int, e stream.Element) error {
			_, err := m.Push(i, e)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		m.Sweep()
		for i := 0; i < q.N(); i++ {
			if m.Stats().StateSize[i] != eager.Stats().StateSize[i] {
				t.Fatalf("trial %d input %d: sweep %d != eager %d",
					trial, i, m.Stats().StateSize[i], eager.Stats().StateSize[i])
			}
		}
	}
}

// TestRandomizedPartialPunctuation: with a fraction of values left open,
// purging still never loses results, purged counts stay consistent, and
// the retained state matches the purge-disabled baseline minus purges.
func TestRandomizedPartialPunctuation(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 40; trial++ {
		q, err := workload.SyntheticQuery(workload.Chain, 2+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		set := workload.AllJoinAttrSchemes(q)
		inputs := workload.Closed(q, set, workload.ClosedConfig{
			Rounds:         4,
			TuplesPerRound: 4,
			Window:         3,
			PunctFraction:  0.5,
			Seed:           rng.Int63(),
		})
		baseline, base := runResults(t, q, set, Config{DisablePurge: true}, inputs)
		got, m := runResults(t, q, set, Config{}, inputs)
		if strings.Join(got, "\n") != strings.Join(baseline, "\n") {
			t.Fatalf("trial %d: results differ under partial punctuation", trial)
		}
		var purged uint64
		for _, v := range m.Stats().TuplesPurged {
			purged += v
		}
		if int(purged)+m.Stats().TotalState() != base.Stats().TotalState() {
			t.Fatalf("trial %d: purged %d + retained %d != baseline %d",
				trial, purged, m.Stats().TotalState(), base.Stats().TotalState())
		}
	}
}

// TestRandomizedSafetyMatchesRuntime ties the theory to the runtime: for
// random queries and scheme sets, exactly the streams the GPG declares
// purgeable drain on a closed workload; the rest retain every tuple.
func TestRandomizedSafetyMatchesRuntime(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		topos := []workload.Topology{workload.Chain, workload.Cycle, workload.Star}
		q, err := workload.SyntheticQuery(topos[rng.Intn(len(topos))], 2+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		// Random subset of the full scheme set: some streams lose their
		// schemes, making some states unpurgeable.
		full := workload.AllJoinAttrSchemes(q).All()
		set := stream.NewSchemeSet()
		for _, s := range full {
			if rng.Intn(3) != 0 {
				set.Add(s)
			}
		}
		gpg := safety.BuildGPG(q, set)
		inputs := workload.Closed(q, set, workload.ClosedConfig{
			Rounds: 5, TuplesPerRound: 3, Window: 2, PunctFraction: 1,
			Seed: rng.Int63(),
		})
		_, m := runResults(t, q, set, Config{}, inputs)
		for i := 0; i < q.N(); i++ {
			if gpg.StreamPurgeable(i) {
				checked++
				if m.Stats().StateSize[i] != 0 {
					t.Fatalf("trial %d: purgeable stream %d retained %d tuples\nquery %s schemes %s",
						trial, i, m.Stats().StateSize[i], q, set)
				}
			} else if m.Stats().StateSize[i] != 5*3 {
				t.Fatalf("trial %d: unpurgeable stream %d has %d tuples, want all %d\nquery %s schemes %s",
					trial, i, m.Stats().StateSize[i], 15, q, set)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no purgeable streams sampled; generator broken")
	}
}

// TestProductOverflowConservative: a purge check whose punctuation
// requirement product exceeds the cap keeps the tuple (no unsound purge)
// without breaking later purges.
func TestProductOverflowConservative(t *testing.T) {
	q := chainQuery(t)
	schemes := stream.NewSchemeSet(
		stream.MustScheme("S2", true, false),
		stream.MustScheme("S3", true, false),
	)
	m, err := NewMJoin(Config{Query: q, Schemes: schemes})
	if err != nil {
		t.Fatal(err)
	}
	// One S1 tuple bridged to a frontier wider than the product cap: its
	// purge would require more punctuation combinations than the checker
	// is willing to enumerate.
	pushT(t, m, 0, tup(1, 1))
	for c := int64(0); c < productCap+10; c++ {
		pushT(t, m, 1, tup(1, c))
	}
	pushP(t, m, 1, punct(1, -1))
	pushP(t, m, 2, punct(0, -1))
	// The requirement product exceeds the cap, so t is conservatively
	// retained: overflow must never purge wrongly.
	if m.Stats().StateSize[0] != 1 {
		t.Fatalf("S1 state = %d; overflow must retain, never wrongly purge", m.Stats().StateSize[0])
	}
	// A narrow-frontier tuple in the same operator still purges normally.
	pushT(t, m, 0, tup(2, 999))
	pushT(t, m, 1, tup(999, 5))
	pushP(t, m, 1, punct(999, -1))
	pushP(t, m, 2, punct(5, -1))
	if m.Stats().StateSize[0] != 1 {
		t.Fatalf("narrow tuple should purge; S1 state = %d", m.Stats().StateSize[0])
	}
}

// TestStringers exercises the diagnostic String methods.
func TestStringers(t *testing.T) {
	m, err := NewMJoin(Config{Query: binaryQuery(t), Schemes: bothSideSchemes()})
	if err != nil {
		t.Fatal(err)
	}
	if s := m.String(); !strings.Contains(s, "MJoin") {
		t.Errorf("MJoin.String() = %q", s)
	}
	if s := m.Stats().String(); !strings.Contains(s, "state=") {
		t.Errorf("Stats.String() = %q", s)
	}
	if s := fmt.Sprint(m.OutputSchema()); !strings.Contains(s, "R_K") {
		t.Errorf("OutputSchema = %q", s)
	}
}

// punctTrajectoryDigest is the SHA-256 of the per-element punctuation
// trajectory recorded by TestPunctPurgeTrajectoryGolden. It pins the
// §5.1 purge decisions: any change to which stored punctuation is dropped,
// or at which element, or to the order of emitted output punctuations,
// changes the digest even when the result multiset is unaffected.
const punctTrajectoryDigest = "6bac19cda302609185f1aa9eaf367b7985e0eddd38381bcc9cc51a5e61245329"

// TestPunctPurgeTrajectoryGolden replays random closed scenarios with §5.1
// punctuation purging on (eager, lazy, and with lifespans) and hashes, per
// element, every input's PunctStoreSize and PunctsPurged plus the emitted
// output punctuations; the final Flush and a clean-up Sweep are included.
// The digest must match the recorded one exactly.
func TestPunctPurgeTrajectoryGolden(t *testing.T) {
	h := sha256.New()
	rng := rand.New(rand.NewSource(808))
	var purged uint64
	for trial := 0; trial < 40; trial++ {
		q, set, inputs := randomClosedScenario(rng)
		// A second feed over the same query adds one multi-attribute
		// scheme per stream joining on two or more attributes, so the
		// trajectory also covers multi-constant counter-punctuations.
		multi := stream.NewSchemeSet(set.All()...)
		for i := 0; i < q.N(); i++ {
			if ja := q.JoinAttrs(i); len(ja) > 1 {
				mask := make([]bool, q.Stream(i).Arity())
				for _, a := range ja {
					mask[a] = true
				}
				multi.Add(stream.MustScheme(q.Stream(i).Name(), mask...))
			}
		}
		multiInputs := workload.Closed(q, multi, workload.ClosedConfig{
			Rounds: 4, TuplesPerRound: 3, Window: 2, PunctFraction: 1, Seed: int64(trial),
		})
		for ci, cfg := range []Config{
			{PurgePunctuations: true},
			{PurgeBatch: 16, PurgePunctuations: true},
			{PurgePunctuations: true, PunctLifespan: 6},
			{PurgePunctuations: true, Schemes: multi},
			{PurgeBatch: 16, PurgePunctuations: true, Schemes: multi},
		} {
			feedInputs := inputs
			if cfg.Schemes == nil {
				cfg.Schemes = set
			} else {
				feedInputs = multiInputs
			}
			cfg.Query = q
			m, err := NewMJoin(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "trial %d cfg %d\n", trial, ci)
			record := func(outs []stream.Element) {
				st := m.Stats()
				fmt.Fprintf(h, "%v %v", st.PunctStoreSize, st.PunctsPurged)
				for _, o := range outs {
					if o.IsPunct() {
						fmt.Fprintf(h, " %s", o.Punct())
					}
				}
				h.Write([]byte{'\n'})
			}
			feed, err := workload.NewFeed(q, feedInputs)
			if err != nil {
				t.Fatal(err)
			}
			if err := feed.Each(func(i int, e stream.Element) error {
				outs, err := m.Push(i, e)
				record(outs)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			record(m.Flush())
			_, outs := m.Sweep()
			record(outs)
			for _, n := range m.Stats().PunctsPurged {
				purged += n
			}
		}
	}
	if purged == 0 {
		t.Fatal("no punctuation was ever purged; the trajectory pins nothing")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != punctTrajectoryDigest {
		t.Fatalf("punctuation trajectory digest = %s, want %s", got, punctTrajectoryDigest)
	}
}
