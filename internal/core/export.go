package core

import (
	"slices"

	"daccor/internal/blktrace"
)

// Exporter derives a device's full sorted export — RawGroup.Snapshot(0)
// — from successive captures of the same analyzers without sorting the
// tables each time. Between two captures of a busy device a few hundred
// entries move out of tens of thousands; each partition's capture says
// which (the entries stamped since the previous capture, and the keys
// its tables discarded), so the new export is the previous one minus
// those keys, merged with the moved entries in sorted order: patchSorted,
// the pass SnapshotDelta.Apply makes too.
// Partitions own disjoint keys (PartitionOf), so the group's captures
// combine by concatenation and one patch serves every P.
//
// A partition whose capture the previous export cannot be advanced to
// is taken whole instead: its first capture, one of a different
// analyzer (a restore, a restart), and one whose discard ring has lapped
// since the previous export — too many evictions between two exports for
// the ring's C/4 keys. Every entry the previous export holds for it is
// dropped by ownership and all of its entries join the patch, so a
// lapped partition costs a sort of that partition only. With no previous
// export, or every partition taken whole, the group is sorted in full.
//
// An Exporter is not safe for concurrent use. The exports it returns
// are immutable and stay valid.
type Exporter struct {
	prev Snapshot
	// bases[k] marks the capture of partition k that prev was derived
	// from.
	bases []captureMark
}

// Export returns the sorted export of g, which must be a capture group
// of the device every earlier call was given one of. patched reports
// whether every partition was advanced from the previous export; false
// means at least one was taken whole.
func (x *Exporter) Export(g RawGroup) (snap Snapshot, patched bool) {
	if len(x.bases) != len(g) {
		x.bases = make([]captureMark, len(g)) // zero marks: every partition taken whole
	}
	items := make([]tableChange[blktrace.Extent], len(g))
	pairs := make([]tableChange[blktrace.Pair], len(g))
	whole := 0
	for k, r := range g {
		goneItems, gonePairs, ok := r.goneSince(x.bases[k])
		if !ok {
			whole++
		}
		after := x.bases[k].seq
		items[k] = tableChange[blktrace.Extent]{r.items, r.itemLog.stamps, after, goneItems, !ok}
		pairs[k] = tableChange[blktrace.Pair]{r.pairs, r.pairLog.stamps, after, gonePairs, !ok}
		x.bases[k] = r.mark()
	}
	if whole == len(g) {
		x.prev = g.Snapshot(0)
	} else {
		x.prev = Snapshot{
			Pairs: advanceSorted(x.prev.Pairs, pairs, pairOps),
			Items: advanceSorted(x.prev.Items, items, itemOps),
		}
	}
	return x.prev, whole == 0
}

// tableChange is what one partition's capture says about one of its
// tables since the previous export: the entries stamped after `after`
// have moved and the gone keys were discarded — or, when whole, that
// the previous export cannot be advanced for this partition at all.
type tableChange[K comparable] struct {
	entries []Entry[K]
	stamps  []uint32
	after   uint32
	gone    []K
	whole   bool
}

// advanceSorted brings one table's previous sorted export up to the
// group's captures, given each partition's change. From a partition
// advanced in place, its moved entries replace theirs and its gone keys
// are dropped (keys the export never held among them, which drop
// nothing); from one taken whole, every entry moves and every previous
// entry it owns is dropped.
func advanceSorted[K comparable, E any](prev []E, parts []tableChange[K], ops exportOps[K, E]) []E {
	var moved []E
	size, nGone, anyWhole := 0, 0, false
	for _, c := range parts {
		size += len(c.entries)
		if c.whole {
			anyWhole = true
			continue
		}
		nGone += len(c.gone)
		for i, stamp := range c.stamps {
			if stamp > c.after {
				e := c.entries[i]
				moved = append(moved, ops.mk(e.Key, e.Count, e.Tier))
			}
		}
	}
	if len(moved)+nGone == 0 && !anyWhole {
		return prev
	}
	// Only the keys of partitions advanced in place go in the map; those
	// of a partition taken whole are dropped by ownership.
	drop := make(map[K]struct{}, len(moved)+nGone)
	for _, e := range moved {
		drop[ops.key(e)] = struct{}{}
	}
	for _, c := range parts {
		if c.whole {
			moved = appendExport(moved, c.entries, 0, ops)
			continue
		}
		for _, k := range c.gone {
			drop[k] = struct{}{}
		}
	}
	slices.SortFunc(moved, ops.cmp)
	out := patchSorted(make([]E, 0, size), prev, moved, ops, func(k K) bool {
		_, ok := drop[k]
		return ok || anyWhole && parts[PartitionOf(ops.owner(k), len(parts))].whole
	})
	if len(out) == 0 {
		return nil // as every other Snapshot producer has an empty table
	}
	return out
}
