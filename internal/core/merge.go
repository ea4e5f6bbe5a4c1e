package core

import (
	"math"

	"daccor/internal/blktrace"
)

// satAdd sums two counters, clamping at the uint32 ceiling. Per-device
// counters can each be near the ceiling after a long run, so a
// fleet-wide sum must saturate rather than wrap: a wrapped counter
// would demote the fleet's hottest correlation to the bottom of the
// merged ranking.
func satAdd(a, b uint32) uint32 {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxUint32
}

// MergeSnapshots combines per-device synopsis exports into one
// fleet-wide view from scratch: the union of the pair and item sets with
// counters summed (saturating at the uint32 ceiling) and the tier taken
// as the highest tier any device holds the entry in — the
// per-stream-synopsis-then-combine shape of the correlated heavy hitters
// literature. It is the oracle: the tests and the repository benchmark
// hold every incremental merge (MergeIndex) and every device export to
// it, and no production path calls it.
//
// The result is ordered like any Snapshot (descending counter, ties by
// key), so merging the same snapshots in any order yields an identical
// value. Merging a single snapshot returns an equal snapshot.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	var out Snapshot
	// Size the dedup maps (and the output slices) by the summed input
	// lengths: an upper bound on the union, so the merge path never
	// rehashes or re-appends mid-merge. Overlapping fleets over-reserve
	// by the overlap, which is bounded and transient.
	var nPairs, nItems int
	for _, s := range snaps {
		nPairs += len(s.Pairs)
		nItems += len(s.Items)
	}
	pairAt := make(map[blktrace.Pair]int, nPairs)
	itemAt := make(map[blktrace.Extent]int, nItems)
	if nPairs > 0 {
		out.Pairs = make([]PairCount, 0, nPairs)
	}
	if nItems > 0 {
		out.Items = make([]ItemCount, 0, nItems)
	}
	for _, s := range snaps {
		for _, pc := range s.Pairs {
			if i, ok := pairAt[pc.Pair]; ok {
				out.Pairs[i].Count = satAdd(out.Pairs[i].Count, pc.Count)
				if pc.Tier > out.Pairs[i].Tier {
					out.Pairs[i].Tier = pc.Tier
				}
				continue
			}
			pairAt[pc.Pair] = len(out.Pairs)
			out.Pairs = append(out.Pairs, pc)
		}
		for _, ic := range s.Items {
			if i, ok := itemAt[ic.Extent]; ok {
				out.Items[i].Count = satAdd(out.Items[i].Count, ic.Count)
				if ic.Tier > out.Items[i].Tier {
					out.Items[i].Tier = ic.Tier
				}
				continue
			}
			itemAt[ic.Extent] = len(out.Items)
			out.Items = append(out.Items, ic)
		}
	}
	out.sort()
	return out
}

// TopRules extracts the limit highest-ranked directional rules from an
// exported snapshot (all of them when limit <= 0), as Analyzer.Rules
// does from the live tables: every pair with counter >= minSupport
// yields up to two rules, kept when the antecedent extent is present in
// the snapshot's item table and the confidence freq(From∧To)/freq(From)
// meets minConfidence. On a single analyzer's full export, Snapshot(0)
// .TopRules(s, c, 0) is exactly Analyzer.Rules(s, c); on a merged
// snapshot the confidences are estimates over the summed counters. The
// snapshot must have been exported with a support low enough to retain
// the antecedent items (0 for exact agreement with the live tables).
//
// Snapshot.State is the bounded read form; this one remains because the
// repository benchmark holds merged rules to it, and as the tests'
// spelling of the unbounded rule list.
func (s Snapshot) TopRules(minSupport uint32, minConfidence float64, limit int) []Rule {
	var items extentIndex
	keyAt := func(i int) blktrace.Extent { return s.Items[i].Extent }
	items.build(len(s.Items), keyAt)
	itemCount := func(ext blktrace.Extent) uint32 {
		if i := items.lookup(ext, keyAt); i >= 0 {
			return s.Items[i].Count
		}
		return 0
	}
	sink := newRuleSink(limit)
	for _, pc := range s.Pairs {
		if pc.Count < minSupport {
			continue
		}
		sink.addPair(pc.Pair, pc.Count, minConfidence, itemCount)
	}
	return sink.finish()
}
