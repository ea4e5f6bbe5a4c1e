package core

import (
	"fmt"
	"io"

	"daccor/internal/blktrace"
)

// Intra-device scale-up support: one device's synopsis can be split
// into P partition-local analyzers, each updated by its own worker
// through ProcessPartition, with an exact combine step for every
// read-side product. The scheme follows the mergeable-summary shape of
// the correlated heavy hitters literature — partition-local sketches,
// combined on read — where the combine of disjoint partitions is a
// concatenation, not a summing merge:
//
//   - an extent belongs to PartitionOf(extent, P);
//   - a canonical pair {A ≤ B} belongs to A's partition (the min-extent
//     partition), and a partition threads a pair into the membership
//     list of each member it owns — A's always, B's when B is its own —
//     so the correlation table's intrusive membership lists never span
//     partitions;
//   - each partition runs an ordinary Analyzer at 1/P of the device
//     capacity (Config.Split), so the device's memory bound is
//     preserved;
//   - device reads take the P captures side by side (RawGroup): bounded
//     reads scan them in one pass (RawGroup.State), the sorted export
//     sorts their concatenation (RawGroup.Snapshot), and an Exporter
//     patches the previous export partition by partition. Nothing on a
//     device's read path sums or hashes across partitions.
//
// The split is exact while no partition evicts: every partition sees
// the same transactions (restricted to its owned extents and pairs) and
// touches them in the same order, so entry sets, counters, tiers and
// each tier's recency order equal the P=1 analyzer's. Under eviction
// pressure the approximation is partition-local — a hot partition
// sheds earlier than the device-wide table would — and item-eviction
// pair demotions apply only to partition-local pairs, which is exactly
// the ownership invariant (a pair lives where its min extent lives, but
// its max extent's item entry may live elsewhere).

// PartitionOf maps an extent to a partition in [0, parts). The hash is
// seed-free and therefore stable across processes and restarts: a
// checkpoint written by a P-partitioned device must re-split onto the
// same partition layout after a restore (SplitAnalyzer), and a fleet of
// replicas must agree on ownership.
func PartitionOf(e blktrace.Extent, parts int) int {
	if parts <= 1 {
		return 0
	}
	// splitmix64-style finalizer over the extent's 96 significant bits,
	// then a fixed-point multiply on the top 32 bits: idx = ⌊x·parts/2³²⌋
	// is uniform over [0, parts) without a modulo.
	h := e.Block ^ (uint64(e.Len) << 37) ^ uint64(e.Len)
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return int(((h >> 32) * uint64(parts)) >> 32)
}

// Split derives the per-partition analyzer configuration: capacities
// divided by parts (floored, so the P partitions together never exceed
// the device-level bound — a combined checkpoint of P partitions must
// re-load under the device capacities). Threshold and tier ratio pass
// through unchanged.
func (c Config) Split(parts int) (Config, error) {
	if parts < 1 {
		return Config{}, fmt.Errorf("core: partitions must be >= 1 (got %d)", parts)
	}
	if parts == 1 {
		return c, nil
	}
	out := c
	out.ItemCapacity = c.ItemCapacity / parts
	out.PairCapacity = c.PairCapacity / parts
	if out.ItemCapacity < 1 || out.PairCapacity < 1 {
		return Config{}, fmt.Errorf("core: capacities (items %d, pairs %d) too small to split %d ways",
			c.ItemCapacity, c.PairCapacity, parts)
	}
	return out, nil
}

// RawGroup is the captures of one device's P partition analyzers, in
// partition order, one per partition (none nil). Ownership makes the
// captures disjoint, so merged products are exact combines, not
// approximations.
type RawGroup []*RawSnapshot

// Snapshot derives the device-level sorted export from the group: the
// entries with counter >= minSupport, descending counter, ties by key.
// The captures are disjoint by ownership, so their union is a
// concatenation — every capture's entries are collected and sorted
// once, with nothing summed or hashed.
func (g RawGroup) Snapshot(minSupport uint32) Snapshot {
	var s Snapshot
	for _, r := range g {
		s.Pairs = appendExport(s.Pairs, r.pairs, minSupport, pairOps)
		s.Items = appendExport(s.Items, r.items, minSupport, itemOps)
	}
	s.sort()
	return s
}

// Stats sums the captured per-partition processing counters. The
// caller owns the Transactions semantics: partitions never count
// transactions (see ProcessPartition), so the sum carries only
// whatever a restored partition 0 inherited; the engine adds its
// router-side transaction count on top.
func (g RawGroup) Stats() Stats {
	var t Stats
	for _, r := range g {
		t = t.Add(r.stats)
	}
	return t
}

// EncodeMerged serialises the group as ONE device-level snapshot in the
// standard synopsis format, loadable by LoadAnalyzer under cfg's
// capacities — the combined-checkpoint path for partitioned devices
// (one file per device regardless of P, re-splittable on restore by
// SplitAnalyzer at any partition count). cfg is the device-level
// analyzer configuration; stats the device-level counters to record.
//
// Partition captures are concatenated per tier in partition order
// (each partition's run is MRU→LRU, so per-partition recency survives a
// re-split). Tier-ratio flooring can make the partitions' per-tier
// capacities sum to slightly more than the device-level tier capacity;
// entries beyond a tier's device-level bound are shed (they are the
// most-LRU survivors of their partition) and counted in the returned
// shed. With TierRatio 0 (equal tiers) nothing is ever shed.
func (g RawGroup) EncodeMerged(w io.Writer, cfg Config, stats Stats) (n int64, shed int, err error) {
	i1cap, i2cap := splitTiers(cfg.ItemCapacity, cfg.TierRatio)
	p1cap, p2cap := splitTiers(cfg.PairCapacity, cfg.TierRatio)
	var nItems, nPairs int
	for _, r := range g {
		nItems += len(r.items)
		nPairs += len(r.pairs)
	}
	items := make([]Entry[blktrace.Extent], 0, nItems)
	pairs := make([]Entry[blktrace.Pair], 0, nPairs)
	var i1, i2, p1, p2 int
	for _, r := range g {
		for _, e := range r.items {
			if e.Tier == Tier2 {
				if i2 >= i2cap {
					shed++
					continue
				}
				i2++
			} else {
				if i1 >= i1cap {
					shed++
					continue
				}
				i1++
			}
			items = append(items, e)
		}
		for _, e := range r.pairs {
			if e.Tier == Tier2 {
				if p2 >= p2cap {
					shed++
					continue
				}
				p2++
			} else {
				if p1 >= p1cap {
					shed++
					continue
				}
				p1++
			}
			pairs = append(pairs, e)
		}
	}
	n, err = encodeSnapshot(w, cfg, stats, items, pairs)
	return n, shed, err
}

// tierFull reports whether the given tier is at capacity, the guard
// SplitAnalyzer uses to shed instead of erroring on restore.
func (t *Table[K]) tierFull(tier Tier) bool {
	if tier == Tier2 {
		return t.t2.size >= t.cfg.Capacity2
	}
	return t.t1.size >= t.cfg.Capacity1
}

// SplitAnalyzer distributes one device-level analyzer's state onto
// parts partition-local analyzers (each at Config.Split capacity) by
// ownership hash — the restore path for a partitioned device loading a
// combined checkpoint (or adopting a template analyzer). Entries are
// re-inserted in capture order (T2 first, MRU→LRU per tier), so each
// partition preserves the source's relative recency; entries that
// overflow a partition's tier (hash skew) are shed, LRU-most first,
// and counted in shed. Device-lifetime stats move to partition 0 so
// summed partition stats reproduce the device totals.
//
// parts == 1 returns the source analyzer itself, untouched.
func SplitAnalyzer(a *Analyzer, parts int) ([]*Analyzer, int, error) {
	if parts == 1 {
		return []*Analyzer{a}, 0, nil
	}
	pcfg, err := a.Config().Split(parts)
	if err != nil {
		return nil, 0, err
	}
	out := make([]*Analyzer, parts)
	for k := range out {
		if out[k], err = NewAnalyzer(pcfg); err != nil {
			return nil, 0, err
		}
	}
	var raw RawSnapshot
	a.CaptureSnapshot(&raw)
	var shedItems, shedPairs int
	for _, e := range raw.items {
		t := out[PartitionOf(e.Key, parts)]
		if t.items.tierFull(e.Tier) {
			shedItems++
			continue
		}
		s, err := t.items.restore(e.Key, e.Count, e.Tier)
		if err != nil {
			return nil, 0, fmt.Errorf("core: split item %v: %w", e.Key, err)
		}
		t.admitItem(s, e.Key)
	}
	for _, e := range raw.pairs {
		k := PartitionOf(e.Key.A, parts)
		t := out[k]
		if t.pairs.tierFull(e.Tier) {
			shedPairs++
			continue
		}
		s, err := t.pairs.restore(e.Key, e.Count, e.Tier)
		if err != nil {
			return nil, 0, fmt.Errorf("core: split pair %v: %w", e.Key, err)
		}
		sb := nilSlot
		if PartitionOf(e.Key.B, parts) != k {
			sb = unowned
		}
		t.registerPair(s, e.Key, nilSlot, sb)
	}
	st := a.stats
	st.ItemEvictions += uint64(shedItems)
	st.PairEvictions += uint64(shedPairs)
	out[0].stats = st
	return out, shedItems + shedPairs, nil
}
