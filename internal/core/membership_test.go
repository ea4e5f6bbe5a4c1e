package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"daccor/internal/blktrace"
)

// membersOf returns the pairs reached from e's membership list: the
// list anchored at e's item slot while e has an item entry, and the
// orphan list it left behind while it has none.
func (a *Analyzer) membersOf(e blktrace.Extent) []blktrace.Pair {
	h := nilSlot
	if s := a.items.lookup(e); s != nilSlot {
		h = a.itemHeads[s]
	} else if o, ok := a.orphans.Get(e); ok {
		h = o
	}
	var out []blktrace.Pair
	for v := h; v != nilSlot; v = a.links[v].next {
		out = append(out, a.pairs.keyAt(v>>1))
	}
	return out
}

// livePairsContaining is the brute-force oracle: every live pair in the
// analyzer's correlation table that contains e.
func livePairsContaining(a *Analyzer, e blktrace.Extent) []blktrace.Pair {
	var out []blktrace.Pair
	for _, en := range a.Pairs().Entries(0) {
		if en.Key.Contains(e) {
			out = append(out, en.Key)
		}
	}
	return out
}

// checkMembershipOracle holds every owned extent of universe to the
// oracle — its list reaches exactly the live pairs that contain it — and
// then runs the structural checker, which also demands that each live
// pair be threaded once per owned member.
func checkMembershipOracle(a *Analyzer, universe []blktrace.Extent, part, parts int) error {
	for _, e := range universe {
		if PartitionOf(e, parts) != part {
			continue
		}
		got, want := a.membersOf(e), livePairsContaining(a, e)
		slices.SortFunc(got, blktrace.Pair.Compare)
		slices.SortFunc(want, blktrace.Pair.Compare)
		if !slices.Equal(got, want) {
			return fmt.Errorf("partition %d/%d: %v's list reaches %v, live pairs containing it are %v",
				part, parts, e, got, want)
		}
	}
	return a.checkMembershipInvariants(part, parts)
}

// membershipStream is a random deduplicated transaction stream over a
// universe of few enough extents that small tables evict items and see
// them come back.
func membershipStream(rng *rand.Rand, universe []blktrace.Extent, n int) [][]blktrace.Extent {
	txs := make([][]blktrace.Extent, n)
	for i := range txs {
		perm := rng.Perm(len(universe))[:1+rng.Intn(5)]
		for _, k := range perm {
			txs[i] = append(txs[i], universe[k])
		}
	}
	return txs
}

// TestMembershipOracle runs random streams through small analyzers at
// P = 1 and P = 2, and through LoadAnalyzer and SplitAnalyzer restores
// taken mid-stream, and after every transaction holds each owned
// extent's list to a brute-force scan of the live pairs containing it.
// The tables are small enough that items are evicted while their pairs
// live on and are admitted again later, so orphaned lists are made and
// adopted throughout; the test fails if a stream never does either.
func TestMembershipOracle(t *testing.T) {
	universe := make([]blktrace.Extent, 0, 14)
	for b := uint64(0); b < 7; b++ {
		universe = append(universe, ext(b*8, 8), ext(b*8, 1))
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{ItemCapacity: 2 + rng.Intn(3), PairCapacity: 3 + rng.Intn(6)}
		txs := membershipStream(rng, universe, 120)
		cut := 40 + rng.Intn(40)

		one := mustAnalyzer(t, cfg)
		two := newPartitionSet(t, cfg, 2)
		var adopted bool
		feed := func(stage string, txs [][]blktrace.Extent, one *Analyzer, two []*Analyzer) {
			t.Helper()
			for i, tx := range txs {
				var orphaned []blktrace.Extent
				one.orphans.Range(func(e blktrace.Extent, _ int32) bool {
					orphaned = append(orphaned, e)
					return true
				})
				one.Process(tx)
				// An extent with an orphan list that is live now was
				// admitted while its list still stood.
				for _, e := range orphaned {
					adopted = adopted || one.Items().TierOf(e) != TierNone
				}
				if err := checkMembershipOracle(one, universe, 0, 1); err != nil {
					t.Fatalf("seed %d %s, P=1 after tx %d %v: %v", seed, stage, i, tx, err)
				}
				processPartitioned(two, tx)
				for k, a := range two {
					if err := checkMembershipOracle(a, universe, k, 2); err != nil {
						t.Fatalf("seed %d %s, P=2 after tx %d %v: %v", seed, stage, i, tx, err)
					}
				}
			}
		}
		feed("fresh", txs[:cut], one, two)

		var buf bytes.Buffer
		if _, err := one.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadAnalyzer(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkMembershipOracle(loaded, universe, 0, 1); err != nil {
			t.Fatalf("seed %d, loaded: %v", seed, err)
		}
		split, _, err := SplitAnalyzer(loaded, 2)
		if err != nil {
			t.Fatal(err)
		}
		for k, a := range split {
			if err := checkMembershipOracle(a, universe, k, 2); err != nil {
				t.Fatalf("seed %d, split: %v", seed, err)
			}
		}
		// The split copies loaded's state, so both go on from the cut.
		feed("restored", txs[cut:], loaded, split)
		if one.Stats().ItemEvictions == 0 || !adopted {
			t.Fatalf("seed %d: stream evicted %d items and adopted an orphan list: %v; it exercises nothing",
				seed, one.Stats().ItemEvictions, adopted)
		}
	}
}

// An extent evicted and admitted again within one transaction (which
// only a transaction with a duplicate extent can do) still has all of
// its pairs demoted: the walk finds its list where the re-admission put
// it, so the demotions are exactly the live pairs containing each
// evicted extent.
func TestMembershipEvictedAndReadmittedInOneTransaction(t *testing.T) {
	a := mustAnalyzer(t, Config{ItemCapacity: 1, PairCapacity: 64, PromoteThreshold: 99})
	x, y, z := ext(1, 1), ext(2, 1), ext(3, 1)
	a.Process([]blktrace.Extent{x, z}) // pair (x,z) outlives x, which z evicts
	before := a.Stats()
	// Item T1 holds one extent: x evicts z, y evicts x, x evicts y.
	a.Process([]blktrace.Extent{x, y, x})
	st := a.Stats()
	if got := st.ItemEvictions - before.ItemEvictions; got != 3 {
		t.Fatalf("transaction evicted %d items, want z, x and y", got)
	}
	var want uint64
	for _, e := range []blktrace.Extent{x, y, z} {
		want += uint64(len(livePairsContaining(a, e)))
	}
	if got := st.PairDemotions - before.PairDemotions; got != want {
		t.Errorf("transaction demoted %d pairs, want the %d live pairs containing z, x or y", got, want)
	}
	if err := checkMembershipOracle(a, []blktrace.Extent{x, y, z}, 0, 1); err != nil {
		t.Fatal(err)
	}
}
