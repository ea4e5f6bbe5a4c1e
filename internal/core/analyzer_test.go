package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"daccor/internal/blktrace"
)

func ext(block uint64, length uint32) blktrace.Extent {
	return blktrace.Extent{Block: block, Len: length}
}

func mustAnalyzer(t *testing.T, cfg Config) *Analyzer {
	t.Helper()
	a, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatalf("NewAnalyzer: %v", err)
	}
	return a
}

func TestNewAnalyzerValidation(t *testing.T) {
	if _, err := NewAnalyzer(Config{ItemCapacity: 0, PairCapacity: 1}); err == nil {
		t.Error("want error for zero ItemCapacity")
	}
	if _, err := NewAnalyzer(Config{ItemCapacity: 1, PairCapacity: 0}); err == nil {
		t.Error("want error for zero PairCapacity")
	}
	// A capacity LoadAnalyzer would refuse must be refused up front, or
	// the analyzer writes checkpoints it cannot restore.
	for _, tc := range []struct {
		cfg Config
		ok  bool
	}{
		{Config{ItemCapacity: MaxSnapshotCapacity, PairCapacity: MaxSnapshotCapacity}, true},
		{Config{ItemCapacity: MaxSnapshotCapacity + 1, PairCapacity: 1}, false},
		{Config{ItemCapacity: 1, PairCapacity: MaxSnapshotCapacity + 1}, false},
	} {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("Validate(%+v) = %v, want ok %v", tc.cfg, err, tc.ok)
		}
	}
}

func TestProcessCountsItemsAndPairs(t *testing.T) {
	a := mustAnalyzer(t, Config{ItemCapacity: 16, PairCapacity: 16})
	tx := []blktrace.Extent{ext(100, 4), ext(200, 3), ext(300, 1)}
	a.Process(tx)
	st := a.Stats()
	if st.Transactions != 1 || st.Extents != 3 || st.PairTouches != 3 {
		t.Errorf("stats = %+v", st)
	}
	if a.Items().Len() != 3 {
		t.Errorf("item table len = %d, want 3", a.Items().Len())
	}
	if a.Pairs().Len() != 3 {
		t.Errorf("pair table len = %d, want 3", a.Pairs().Len())
	}
	// The same transaction again promotes everything (threshold 2).
	a.Process(tx)
	st = a.Stats()
	if st.ItemPromotions != 3 || st.PairPromotions != 3 {
		t.Errorf("promotions = %+v", st)
	}
	p := blktrace.MakePair(ext(100, 4), ext(200, 3))
	if a.Pairs().TierOf(p) != Tier2 {
		t.Error("repeated pair should be in T2")
	}
}

func TestPairCountQuadratic(t *testing.T) {
	a := mustAnalyzer(t, Config{ItemCapacity: 64, PairCapacity: 64})
	tx := make([]blktrace.Extent, 8)
	for i := range tx {
		tx[i] = ext(uint64(i*100), 1)
	}
	a.Process(tx)
	if got, want := a.Stats().PairTouches, uint64(8*7/2); got != want {
		t.Errorf("PairTouches = %d, want %d (8 choose 2)", got, want)
	}
}

func TestSingleExtentTransactionNoPairs(t *testing.T) {
	a := mustAnalyzer(t, Config{ItemCapacity: 4, PairCapacity: 4})
	a.Process([]blktrace.Extent{ext(5, 1)})
	if a.Pairs().Len() != 0 {
		t.Error("single-extent transaction must create no pairs")
	}
	a.Process(nil) // empty transaction is harmless
	if a.Stats().Transactions != 2 {
		t.Error("empty transaction should still be counted")
	}
}

func TestItemEvictionDemotesPairs(t *testing.T) {
	// Item T1 holds 4 extents; pair T1 holds 8 pairs. Build two pairs
	// so that (x,y) is the pair-T1 *front* (most recent), then churn
	// the item table with single-extent transactions (which create no
	// pairs) until x and y are evicted. Their eviction must demote
	// (x,y) behind the older (p,q).
	a := mustAnalyzer(t, Config{ItemCapacity: 4, PairCapacity: 8, PromoteThreshold: 99})
	p, q := ext(1, 1), ext(2, 1)
	x, y := ext(3, 1), ext(4, 1)
	a.Process([]blktrace.Extent{p, q}) // pair (p,q), older
	a.Process([]blktrace.Extent{x, y}) // pair (x,y), newer (pair-T1 front)
	// Item T1 (cap 4) is now [y,x,q,p] MRU→LRU. Four single-extent
	// transactions evict p, q, x, and y in turn.
	for i := 0; i < 4; i++ {
		a.Process([]blktrace.Extent{ext(uint64(100+i), 1)})
	}
	if a.Stats().PairDemotions == 0 {
		t.Fatal("item evictions should demote surviving pairs")
	}
	pXY := blktrace.MakePair(x, y)
	pPQ := blktrace.MakePair(p, q)
	// Without demotion the MRU→LRU order would be [(x,y), (p,q)];
	// the demotions must have pushed (x,y) behind (p,q), making it the
	// next eviction victim.
	entries := a.Pairs().Entries(0)
	if len(entries) != 2 {
		t.Fatalf("pair entries = %d, want 2", len(entries))
	}
	if entries[0].Key != pPQ || entries[1].Key != pXY {
		t.Errorf("order after demotion = [%v, %v], want [(p,q), (x,y)]",
			entries[0].Key, entries[1].Key)
	}
}

func TestPairEvictionCleansIndex(t *testing.T) {
	a := mustAnalyzer(t, Config{ItemCapacity: 64, PairCapacity: 1})
	// Pair T1 holds one pair; each new pair evicts the previous.
	for i := 0; i < 50; i++ {
		a.Process([]blktrace.Extent{ext(uint64(2*i), 1), ext(uint64(2*i+1), 1)})
	}
	if a.orphans.Len() > 2*a.Pairs().Len() {
		t.Errorf("orphan lists leaked: %d entries for %d live pairs",
			a.orphans.Len(), a.Pairs().Len())
	}
	if err := a.CheckMembershipInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPairsByExtentConsistentQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a, err := NewAnalyzer(Config{
			ItemCapacity: 1 + rng.Intn(6),
			PairCapacity: 1 + rng.Intn(6),
		})
		if err != nil {
			return false
		}
		for i := 0; i < int(n); i++ {
			txLen := 1 + rng.Intn(5)
			seen := map[blktrace.Extent]struct{}{}
			var tx []blktrace.Extent
			for len(tx) < txLen {
				e := ext(uint64(rng.Intn(10)), uint32(1+rng.Intn(3)))
				if _, dup := seen[e]; dup {
					continue
				}
				seen[e] = struct{}{}
				tx = append(tx, e)
			}
			a.Process(tx)
		}
		// Each extent's membership list must reach exactly the live
		// pairs containing it.
		var universe []blktrace.Extent
		for b := 0; b < 10; b++ {
			for l := 1; l <= 3; l++ {
				universe = append(universe, ext(uint64(b), uint32(l)))
			}
		}
		if checkMembershipOracle(a, universe, 0, 1) != nil {
			return false
		}
		return a.Items().CheckInvariants() == nil && a.Pairs().CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMemoryBytesAccounting(t *testing.T) {
	// Paper: C = 16K gives 1.44 MB total (88C bytes).
	a := mustAnalyzer(t, Config{ItemCapacity: 16 * 1024, PairCapacity: 16 * 1024})
	if got, want := a.MemoryBytes(), 88*16*1024; got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
}

func TestTierRatioSplit(t *testing.T) {
	a := mustAnalyzer(t, Config{ItemCapacity: 8, PairCapacity: 8, TierRatio: 0.75})
	// 2C = 16 entries, T1 should get 12.
	if got := a.Items().Capacity(); got != 16 {
		t.Errorf("items capacity = %d, want 16", got)
	}
	for i := 0; i < 13; i++ { // 13 distinct singles: T1 cap 12 forces 1 eviction
		a.Process([]blktrace.Extent{ext(uint64(i), 1)})
	}
	if got := a.Items().LenT1(); got != 12 {
		t.Errorf("T1 len = %d, want 12", got)
	}
	for _, ratio := range []float64{-1, 0, 1, 2} {
		t1, t2 := splitTiers(10, ratio)
		if t1 != 10 || t2 != 10 {
			t.Errorf("splitTiers(10, %v) = %d,%d; want equal split", ratio, t1, t2)
		}
	}
	// Extreme ratios are clamped to leave at least one slot per tier.
	if t1, t2 := splitTiers(10, 0.0001); t1 != 1 || t2 != 19 {
		t.Errorf("splitTiers clamp low = %d,%d", t1, t2)
	}
	if t1, t2 := splitTiers(10, 0.9999); t1 != 19 || t2 != 1 {
		t.Errorf("splitTiers clamp high = %d,%d", t1, t2)
	}
}

func TestSnapshotOrderingAndFilters(t *testing.T) {
	a := mustAnalyzer(t, Config{ItemCapacity: 32, PairCapacity: 32})
	hot := []blktrace.Extent{ext(100, 4), ext(200, 3)}
	warm := []blktrace.Extent{ext(300, 2), ext(400, 1)}
	for i := 0; i < 5; i++ {
		a.Process(hot)
	}
	for i := 0; i < 2; i++ {
		a.Process(warm)
	}
	a.Process([]blktrace.Extent{ext(500, 1), ext(600, 1)}) // once

	snap := a.Snapshot(0)
	if len(snap.Pairs) != 3 {
		t.Fatalf("snapshot pairs = %d, want 3", len(snap.Pairs))
	}
	if snap.Pairs[0].Count != 5 || snap.Pairs[1].Count != 2 || snap.Pairs[2].Count != 1 {
		t.Errorf("descending order violated: %+v", snap.Pairs)
	}
	if got := a.Snapshot(2); len(got.Pairs) != 2 {
		t.Errorf("Snapshot(2) pairs = %d, want 2", len(got.Pairs))
	}
	if got := a.Snapshot(5); len(got.Pairs) != 1 || got.Pairs[0].Pair != blktrace.MakePair(hot[0], hot[1]) {
		t.Errorf("Snapshot(5) = %+v", got.Pairs)
	}

	set := snap.PairSet()
	if len(set) != 3 {
		t.Errorf("PairSet len = %d", len(set))
	}
	counts := snap.PairCounts()
	if counts[blktrace.MakePair(hot[0], hot[1])] != 5 {
		t.Error("PairCounts wrong for hot pair")
	}
	if top := snap.TopPairs(2); len(top) != 2 || top[0].Count != 5 {
		t.Errorf("TopPairs(2) = %+v", top)
	}
	if top := snap.TopPairs(99); len(top) != 3 {
		t.Errorf("TopPairs(99) len = %d", len(top))
	}
	if len(snap.Items) == 0 || snap.Items[0].Count < snap.Items[len(snap.Items)-1].Count {
		t.Error("items not sorted descending")
	}
}

func TestSnapshotDeterministicTieBreak(t *testing.T) {
	a := mustAnalyzer(t, Config{ItemCapacity: 32, PairCapacity: 32})
	a.Process([]blktrace.Extent{ext(9, 1), ext(1, 1)})
	a.Process([]blktrace.Extent{ext(5, 1), ext(3, 1)})
	s1 := a.Snapshot(0)
	s2 := a.Snapshot(0)
	for i := range s1.Pairs {
		if s1.Pairs[i] != s2.Pairs[i] {
			t.Fatal("snapshot not deterministic")
		}
	}
	if !s1.Pairs[0].Pair.A.Less(s1.Pairs[1].Pair.A) {
		t.Errorf("tie break not by key order: %+v", s1.Pairs)
	}
}

// TestFrequentPairSurvivesNoise is the core behavioural claim: a pair
// recurring among a stream of one-off noise pairs must end in T2 and
// survive, while the noise churns through T1.
func TestFrequentPairSurvivesNoise(t *testing.T) {
	a := mustAnalyzer(t, Config{ItemCapacity: 32, PairCapacity: 32})
	hot := []blktrace.Extent{ext(7777, 4), ext(9999, 2)}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		if i%5 == 0 {
			a.Process(hot)
		} else {
			a.Process([]blktrace.Extent{
				ext(uint64(rng.Intn(1_000_000)), 1),
				ext(uint64(rng.Intn(1_000_000)), 1),
			})
		}
	}
	p := blktrace.MakePair(hot[0], hot[1])
	if a.Pairs().TierOf(p) != Tier2 {
		t.Fatalf("hot pair tier = %v, want T2", a.Pairs().TierOf(p))
	}
	c, _ := a.Pairs().Count(p)
	if c < 90 { // ~100 sightings
		t.Errorf("hot pair count = %d, want ~100", c)
	}
}
