package core

import (
	"slices"
	"strconv"
)

// Exporter derives a device's full sorted export — RawGroup.Snapshot(0)
// — from successive captures of the same analyzers without sorting the
// tables each time. Between two captures of a busy device a few hundred
// entries move out of tens of thousands; the capture says which (the
// entries stamped since the previous capture, and the keys its tables
// discarded), so the new export is the previous one minus those keys,
// merged with the moved entries in sorted order: patchSorted, the pass
// SnapshotDelta.Apply and the merge index's materializer make.
//
// At P=1 the previous export is patched directly. At P>1 the partition
// captures feed a persistent MergeIndex, one source each, through
// MergeIndex.UpdateRaw, which applies the same change sets to its
// shadows and patches its own previous output the same way.
//
// A capture the previous export cannot be advanced to is exported the
// long way, by sorting: the first one, one taken of a different analyzer
// (a restore, a restart), and one whose discard ring has lapped since
// the previous export — too many evictions between two exports for the
// ring's C/4 keys.
//
// An Exporter is not safe for concurrent use. The exports it returns
// are immutable and stay valid.
type Exporter struct {
	prev Snapshot
	// base marks the capture prev was derived from (P=1).
	base captureMark
	// idx unions the partition captures (P>1), under names.
	idx   *MergeIndex
	names []string
}

// Export returns the sorted export of g, which must be a capture group
// of the device every earlier call was given one of. patched reports
// whether it was derived from the previous export; false means at least
// one table was sorted, or one partition reconciled, in full.
func (x *Exporter) Export(g RawGroup) (snap Snapshot, patched bool) {
	if len(g) == 1 {
		x.prev, patched = x.patch(g[0])
		if !patched {
			x.prev = g[0].Snapshot(0)
		}
		x.base = g[0].mark()
		return x.prev, patched
	}
	if x.idx == nil {
		x.idx = NewMergeIndex()
		x.names = make([]string, len(g))
		for i := range x.names {
			x.names[i] = strconv.Itoa(i)
		}
	}
	patched = true
	for i, r := range g {
		if !x.idx.UpdateRaw(x.names[i], r) {
			patched = false
		}
	}
	return x.idx.Snapshot(), patched
}

// patch advances the previous export to capture r, if r can say what
// changed since the capture that export came from.
func (x *Exporter) patch(r *RawSnapshot) (Snapshot, bool) {
	goneItems, gonePairs, ok := r.goneSince(x.base)
	if !ok {
		return Snapshot{}, false
	}
	return Snapshot{
		Pairs: advanceSorted(x.prev.Pairs, r.pairs, r.pairLog.stamps, x.base.seq, gonePairs, pairOps),
		Items: advanceSorted(x.prev.Items, r.items, r.itemLog.stamps, x.base.seq, goneItems, itemOps),
	}, true
}

// advanceSorted brings one table's previous sorted export up to a
// capture of it: entries stamped after `after` have moved since that
// export and gone lists the keys discarded since (keys the export never
// held among them, which drop nothing).
func advanceSorted[K comparable, E any](prev []E, entries []Entry[K], stamps []uint32, after uint32, gone []K, ops exportOps[K, E]) []E {
	var moved []E
	for i, stamp := range stamps {
		if stamp > after {
			e := entries[i]
			moved = append(moved, ops.mk(e.Key, e.Count, e.Tier))
		}
	}
	if len(moved)+len(gone) == 0 {
		return prev
	}
	drop := make(map[K]struct{}, len(moved)+len(gone))
	for _, k := range gone {
		drop[k] = struct{}{}
	}
	for _, e := range moved {
		drop[ops.key(e)] = struct{}{}
	}
	slices.SortFunc(moved, ops.cmp)
	out := patchSorted(make([]E, 0, len(entries)), prev, moved, ops, func(k K) bool {
		_, ok := drop[k]
		return ok
	})
	if len(out) == 0 {
		return nil // as every other Snapshot producer has an empty table
	}
	return out
}
