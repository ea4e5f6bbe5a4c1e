package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"daccor/internal/blktrace"
)

func TestPartitionOfBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, parts := range []int{1, 2, 3, 4, 7, 8, 64} {
		counts := make([]int, parts)
		for i := 0; i < 4096; i++ {
			e := blktrace.Extent{Block: rng.Uint64(), Len: uint32(1 + rng.Intn(256))}
			p := PartitionOf(e, parts)
			if p < 0 || p >= parts {
				t.Fatalf("PartitionOf(%v, %d) = %d out of range", e, parts, p)
			}
			if q := PartitionOf(e, parts); q != p {
				t.Fatalf("PartitionOf(%v, %d) not deterministic: %d then %d", e, parts, p, q)
			}
			counts[p]++
		}
		if parts > 1 {
			for p, n := range counts {
				if n == 0 {
					t.Errorf("parts=%d: partition %d received no extents out of 4096", parts, p)
				}
			}
		}
	}
	if got := PartitionOf(blktrace.Extent{Block: 42, Len: 8}, 1); got != 0 {
		t.Fatalf("parts=1 must map everything to 0, got %d", got)
	}
}

// The hash must be stable across processes (checkpoints re-split by
// it), so its values are pinned: changing the mix function is a format
// break and must be deliberate.
func TestPartitionOfPinned(t *testing.T) {
	cases := []struct {
		e     blktrace.Extent
		parts int
		want  int
	}{
		{blktrace.Extent{Block: 0, Len: 1}, 4, 1},
		{blktrace.Extent{Block: 8, Len: 8}, 4, 0},
		{blktrace.Extent{Block: 1099511627776, Len: 128}, 4, 2},
		{blktrace.Extent{Block: 123456789, Len: 16}, 8, 5},
		{blktrace.Extent{Block: 42, Len: 8}, 3, 0},
	}
	for _, c := range cases {
		if got := PartitionOf(c.e, c.parts); got != c.want {
			t.Errorf("PartitionOf(%v, %d) = %d, want %d (hash changed? that breaks checkpoint re-splitting)",
				c.e, c.parts, got, c.want)
		}
	}
}

func TestConfigSplit(t *testing.T) {
	base := Config{ItemCapacity: 1000, PairCapacity: 501, PromoteThreshold: 3, TierRatio: 0.25}
	got, err := base.Split(4)
	if err != nil {
		t.Fatal(err)
	}
	want := Config{ItemCapacity: 250, PairCapacity: 125, PromoteThreshold: 3, TierRatio: 0.25}
	if got != want {
		t.Fatalf("Split(4) = %+v, want %+v", got, want)
	}
	if same, err := base.Split(1); err != nil || same != base {
		t.Fatalf("Split(1) = %+v, %v; want identity", same, err)
	}
	if _, err := base.Split(0); err == nil {
		t.Fatal("Split(0) must fail")
	}
	if _, err := (Config{ItemCapacity: 2, PairCapacity: 2}).Split(4); err == nil {
		t.Fatal("splitting capacity 2 four ways must fail")
	}
}

// genTransactions builds deterministic random transactions of distinct
// extents, with enough key reuse across transactions to exercise
// promotions and pair-counter growth.
func genTransactions(seed int64, n, maxLen int) [][]blktrace.Extent {
	rng := rand.New(rand.NewSource(seed))
	txs := make([][]blktrace.Extent, 0, n)
	for i := 0; i < n; i++ {
		k := 2 + rng.Intn(maxLen-1)
		seen := make(map[blktrace.Extent]bool, k)
		tx := make([]blktrace.Extent, 0, k)
		for len(tx) < k {
			e := blktrace.Extent{Block: uint64(rng.Intn(200)) * 8, Len: uint32(8 << rng.Intn(2))}
			if !seen[e] {
				seen[e] = true
				tx = append(tx, e)
			}
		}
		txs = append(txs, tx)
	}
	return txs
}

// processPartitioned feeds one transaction to every partition the way
// the engine's router does: the monitor's extents as they are, full
// list to each partition.
func processPartitioned(parts []*Analyzer, tx []blktrace.Extent) {
	for k, a := range parts {
		a.ProcessPartition(tx, k, len(parts))
	}
}

// ownedEntries is the subsequence of entries whose owner is part.
func ownedEntries[K comparable](entries []Entry[K], owner func(K) int, part int) []Entry[K] {
	var out []Entry[K]
	for _, e := range entries {
		if owner(e.Key) == part {
			out = append(out, e)
		}
	}
	return out
}

func newPartitionSet(t *testing.T, cfg Config, parts int) []*Analyzer {
	t.Helper()
	pcfg, err := cfg.Split(parts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*Analyzer, parts)
	for k := range out {
		if out[k], err = NewAnalyzer(pcfg); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func captureGroup(parts []*Analyzer) RawGroup {
	g := make(RawGroup, len(parts))
	for k, a := range parts {
		g[k] = new(RawSnapshot)
		a.CaptureSnapshot(g[k])
	}
	return g
}

// In the no-eviction regime a P-partitioned device must be exactly the
// P=1 analyzer: same entries, same counters, same tiers, same rules,
// and each partition's recency order the P=1 order of the keys it owns.
func TestPartitionedDifferential(t *testing.T) {
	cfg := Config{ItemCapacity: 4096, PairCapacity: 16384}
	txs := genTransactions(42, 600, 8)
	ref, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range txs {
		ref.Process(tx)
	}
	refSnap := ref.Snapshot(0)
	refRules := ref.Rules(2, 0.01)

	for _, p := range []int{1, 2, 4, 7} {
		parts := newPartitionSet(t, cfg, p)
		for _, tx := range txs {
			processPartitioned(parts, tx)
		}
		g := captureGroup(parts)
		if got := g.Snapshot(0); !reflect.DeepEqual(got, refSnap) {
			t.Fatalf("P=%d merged snapshot differs from P=1 (items %d vs %d, pairs %d vs %d)",
				p, len(got.Items), len(refSnap.Items), len(got.Pairs), len(refSnap.Pairs))
		}
		if got := g.State(2, 0.01, len(refRules)+1, WantRules).Rules; !reflect.DeepEqual(got, refRules) {
			t.Fatalf("P=%d merged rules differ from P=1 (%d vs %d rules)", p, len(got), len(refRules))
		}
		st := g.Stats()
		refSt := ref.Stats()
		if st.Extents != refSt.Extents || st.PairTouches != refSt.PairTouches {
			t.Fatalf("P=%d touch totals differ: extents %d vs %d, pairs %d vs %d",
				p, st.Extents, refSt.Extents, st.PairTouches, refSt.PairTouches)
		}
		if st.ItemPromotions != refSt.ItemPromotions || st.PairPromotions != refSt.PairPromotions {
			t.Fatalf("P=%d promotions differ: items %d vs %d, pairs %d vs %d",
				p, st.ItemPromotions, refSt.ItemPromotions, st.PairPromotions, refSt.PairPromotions)
		}
		if st.Transactions != 0 && p > 1 {
			t.Fatalf("partitions must not count transactions, got %d", st.Transactions)
		}
		refItems, refPairs := ref.Items().Entries(0), ref.Pairs().Entries(0)
		itemOwner := func(e blktrace.Extent) int { return PartitionOf(e, p) }
		pairOwner := func(q blktrace.Pair) int { return PartitionOf(q.A, p) }
		for k, a := range parts {
			if got, want := a.Items().Entries(0), ownedEntries(refItems, itemOwner, k); !slices.Equal(got, want) {
				t.Fatalf("P=%d partition %d: item recency differs from P=1's owned entries", p, k)
			}
			if got, want := a.Pairs().Entries(0), ownedEntries(refPairs, pairOwner, k); !slices.Equal(got, want) {
				t.Fatalf("P=%d partition %d: pair recency differs from P=1's owned entries", p, k)
			}
			if err := a.checkMembershipInvariants(k, p); err != nil {
				t.Fatalf("P=%d partition %d membership invariants: %v", p, k, err)
			}
			if err := a.Items().CheckInvariants(); err != nil {
				t.Fatalf("P=%d partition %d item table: %v", p, k, err)
			}
			if err := a.Pairs().CheckInvariants(); err != nil {
				t.Fatalf("P=%d partition %d pair table: %v", p, k, err)
			}
		}
	}
}

// Every partition owns a disjoint slice: no extent or pair may be
// counted by two partitions.
func TestPartitionOwnershipDisjoint(t *testing.T) {
	cfg := Config{ItemCapacity: 4096, PairCapacity: 16384}
	parts := newPartitionSet(t, cfg, 4)
	for _, tx := range genTransactions(9, 200, 6) {
		processPartitioned(parts, tx)
	}
	seenItems := make(map[blktrace.Extent]int)
	seenPairs := make(map[blktrace.Pair]int)
	for k, a := range parts {
		for _, e := range a.Items().Entries(0) {
			if prev, dup := seenItems[e.Key]; dup {
				t.Fatalf("extent %v owned by partitions %d and %d", e.Key, prev, k)
			}
			seenItems[e.Key] = k
			if own := PartitionOf(e.Key, 4); own != k {
				t.Fatalf("extent %v in partition %d, PartitionOf says %d", e.Key, k, own)
			}
		}
		for _, e := range a.Pairs().Entries(0) {
			if prev, dup := seenPairs[e.Key]; dup {
				t.Fatalf("pair %v owned by partitions %d and %d", e.Key, prev, k)
			}
			seenPairs[e.Key] = k
			if own := PartitionOf(e.Key.A, 4); own != k {
				t.Fatalf("pair %v in partition %d, min-extent partition is %d", e.Key, k, own)
			}
		}
	}
}

// SplitAnalyzer must preserve the synopsis exactly (no evictions), and
// the split analyzers must continue the stream equivalently to the
// unsplit original.
func TestSplitAnalyzerRoundTrip(t *testing.T) {
	cfg := Config{ItemCapacity: 4096, PairCapacity: 16384}
	warm := genTransactions(5, 300, 7)
	cold := genTransactions(6, 300, 7)

	ref, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range warm {
		ref.Process(tx)
		src.Process(tx)
	}
	parts, shed, err := SplitAnalyzer(src, 4)
	if err != nil {
		t.Fatal(err)
	}
	if shed != 0 {
		t.Fatalf("no-eviction split shed %d entries", shed)
	}
	if got, want := captureGroup(parts).Snapshot(0), ref.Snapshot(0); !reflect.DeepEqual(got, want) {
		t.Fatal("split group snapshot differs from source immediately after split")
	}
	if got, want := captureGroup(parts).Stats(), ref.Stats(); got != want {
		t.Fatalf("split stats %+v, want %+v", got, want)
	}
	for _, tx := range cold {
		ref.Process(tx)
		processPartitioned(parts, tx)
	}
	if got, want := captureGroup(parts).Snapshot(0), ref.Snapshot(0); !reflect.DeepEqual(got, want) {
		t.Fatal("split group diverged from unsplit analyzer on subsequent stream")
	}
	for k, a := range parts {
		if err := a.checkMembershipInvariants(k, len(parts)); err != nil {
			t.Fatalf("partition %d membership invariants after split+stream: %v", k, err)
		}
	}

	same, shed, err := SplitAnalyzer(src, 1)
	if err != nil || shed != 0 || len(same) != 1 || same[0] != src {
		t.Fatalf("SplitAnalyzer(_, 1) = (%v, %d, %v); want identity", same, shed, err)
	}
}

// A partitioned device's combined checkpoint is one standard snapshot:
// loadable by LoadAnalyzer under the device config, and re-splittable
// onto any partition count.
func TestEncodeMergedLoadRoundTrip(t *testing.T) {
	cfg := Config{ItemCapacity: 4096, PairCapacity: 16384}
	parts := newPartitionSet(t, cfg, 4)
	txs := genTransactions(11, 400, 7)
	for _, tx := range txs {
		processPartitioned(parts, tx)
	}
	g := captureGroup(parts)
	stats := g.Stats()
	stats.Transactions = uint64(len(txs)) // the router's count

	var buf bytes.Buffer
	n, shed, err := g.EncodeMerged(&buf, cfg, stats)
	if err != nil {
		t.Fatal(err)
	}
	if shed != 0 {
		t.Fatalf("equal-tier encode shed %d entries", shed)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("EncodeMerged reported %d bytes, wrote %d", n, buf.Len())
	}
	restored, err := LoadAnalyzer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Config() != cfg {
		t.Fatalf("restored config %+v, want %+v", restored.Config(), cfg)
	}
	if restored.Stats() != stats {
		t.Fatalf("restored stats %+v, want %+v", restored.Stats(), stats)
	}
	if got, want := restored.Snapshot(0), g.Snapshot(0); !reflect.DeepEqual(got, want) {
		t.Fatal("restored snapshot differs from merged group snapshot")
	}
	if err := restored.CheckMembershipInvariants(); err != nil {
		t.Fatalf("restored membership invariants: %v", err)
	}

	// Re-split the restored device at a different partition count.
	reparts, shed, err := SplitAnalyzer(restored, 2)
	if err != nil {
		t.Fatal(err)
	}
	if shed != 0 {
		t.Fatalf("re-split shed %d entries", shed)
	}
	if got, want := captureGroup(reparts).Snapshot(0), g.Snapshot(0); !reflect.DeepEqual(got, want) {
		t.Fatal("re-split group snapshot differs from original group")
	}
}
