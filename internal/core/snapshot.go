package core

import (
	"slices"
	"sort"

	"daccor/internal/blktrace"
)

// PairCount is one correlation-table entry in a snapshot.
type PairCount struct {
	Pair  blktrace.Pair
	Count uint32
	Tier  Tier
}

// ItemCount is one item-table entry in a snapshot.
type ItemCount struct {
	Extent blktrace.Extent
	Count  uint32
	Tier   Tier
}

// Snapshot is a point-in-time export of the synopsis, used to compare
// the online result against offline FIM ground truth (Figs. 7–10) and
// to feed optimization modules.
type Snapshot struct {
	Pairs []PairCount
	Items []ItemCount
}

// Snapshot exports all entries with counter >= minSupport from both
// tables, sorted by descending counter (ties broken by key order for
// determinism).
func (a *Analyzer) Snapshot(minSupport uint32) Snapshot {
	s := Snapshot{
		Pairs: appendExport(nil, a.pairs.Entries(minSupport), minSupport, pairOps),
		Items: appendExport(nil, a.items.Entries(minSupport), minSupport, itemOps),
	}
	s.sort()
	return s
}

// sort orders the snapshot by descending counter, ties broken by key
// order, so every export (and every merge of exports) is deterministic.
func (s *Snapshot) sort() {
	slices.SortFunc(s.Pairs, comparePairCounts)
	slices.SortFunc(s.Items, compareItemCounts)
}

// comparePairCounts is the snapshot pair order: descending counter,
// ties broken by key. Shared by Snapshot.sort and the MergeIndex
// materializer so both produce identical orderings.
func comparePairCounts(a, b PairCount) int {
	if a.Count != b.Count {
		if a.Count > b.Count {
			return -1
		}
		return 1
	}
	if a.Pair.A != b.Pair.A {
		if a.Pair.A.Less(b.Pair.A) {
			return -1
		}
		return 1
	}
	switch {
	case a.Pair.B.Less(b.Pair.B):
		return -1
	case b.Pair.B.Less(a.Pair.B):
		return 1
	}
	return 0
}

// compareItemCounts is the snapshot item order: descending counter,
// ties broken by key.
func compareItemCounts(a, b ItemCount) int {
	if a.Count != b.Count {
		if a.Count > b.Count {
			return -1
		}
		return 1
	}
	switch {
	case a.Extent.Less(b.Extent):
		return -1
	case b.Extent.Less(a.Extent):
		return 1
	}
	return 0
}

// FilterSupport cuts a sorted-descending snapshot at minSupport.
// Exports and merges are ordered by descending count, so the entries
// below the threshold are exactly a suffix — the cut is two binary
// searches and reslices, no copying. minSupport <= 1 returns the input
// unchanged (every live entry has count >= 1).
func (s Snapshot) FilterSupport(minSupport uint32) Snapshot {
	if minSupport <= 1 {
		return s
	}
	np := sort.Search(len(s.Pairs), func(i int) bool { return s.Pairs[i].Count < minSupport })
	ni := sort.Search(len(s.Items), func(i int) bool { return s.Items[i].Count < minSupport })
	s.Pairs, s.Items = s.Pairs[:np], s.Items[:ni]
	if len(s.Pairs) == 0 {
		s.Pairs = nil
	}
	if len(s.Items) == 0 {
		s.Items = nil
	}
	return s
}

// PairSet returns the snapshot's pairs as a set for similarity metrics.
func (s Snapshot) PairSet() map[blktrace.Pair]struct{} {
	set := make(map[blktrace.Pair]struct{}, len(s.Pairs))
	for _, pc := range s.Pairs {
		set[pc.Pair] = struct{}{}
	}
	return set
}

// PairCounts returns the snapshot's pairs as a pair→count map.
func (s Snapshot) PairCounts() map[blktrace.Pair]uint32 {
	m := make(map[blktrace.Pair]uint32, len(s.Pairs))
	for _, pc := range s.Pairs {
		m[pc.Pair] = pc.Count
	}
	return m
}

// TopPairs returns the n highest-count pairs (all of them if n exceeds
// the snapshot size).
func (s Snapshot) TopPairs(n int) []PairCount {
	if n > len(s.Pairs) {
		n = len(s.Pairs)
	}
	return s.Pairs[:n]
}
