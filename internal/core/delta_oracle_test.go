package core

import (
	"fmt"

	"daccor/internal/blktrace"
)

// The delta code as it was written first: Go maps over both full
// exports for the diff, a position map over the base plus a full sort
// for the apply. O(table) per call where the production versions are
// O(delta) beyond one sequential walk, and insensitive to the order of
// their inputs, which is what makes them the reference the merge-walk
// diff and the sorted-patch apply are held to.

func diffSnapshotsByMap(old, new Snapshot) SnapshotDelta {
	var d SnapshotDelta
	oldPairs := make(map[blktrace.Pair]PairCount, len(old.Pairs))
	for _, pc := range old.Pairs {
		oldPairs[pc.Pair] = pc
	}
	oldItems := make(map[blktrace.Extent]ItemCount, len(old.Items))
	for _, ic := range old.Items {
		oldItems[ic.Extent] = ic
	}
	newPairs := make(map[blktrace.Pair]struct{}, len(new.Pairs))
	for _, pc := range new.Pairs {
		newPairs[pc.Pair] = struct{}{}
		if prev, ok := oldPairs[pc.Pair]; !ok || prev != pc {
			d.UpsertPairs = append(d.UpsertPairs, pc)
		}
	}
	newItems := make(map[blktrace.Extent]struct{}, len(new.Items))
	for _, ic := range new.Items {
		newItems[ic.Extent] = struct{}{}
		if prev, ok := oldItems[ic.Extent]; !ok || prev != ic {
			d.UpsertItems = append(d.UpsertItems, ic)
		}
	}
	for _, pc := range old.Pairs {
		if _, ok := newPairs[pc.Pair]; !ok {
			d.DeletePairs = append(d.DeletePairs, pc.Pair)
		}
	}
	for _, ic := range old.Items {
		if _, ok := newItems[ic.Extent]; !ok {
			d.DeleteItems = append(d.DeleteItems, ic.Extent)
		}
	}
	return d
}

func applyByMap(d SnapshotDelta, base Snapshot) (Snapshot, error) {
	pairAt := make(map[blktrace.Pair]int, len(base.Pairs)+len(d.UpsertPairs))
	itemAt := make(map[blktrace.Extent]int, len(base.Items)+len(d.UpsertItems))
	out := Snapshot{
		Pairs: make([]PairCount, len(base.Pairs), len(base.Pairs)+len(d.UpsertPairs)),
		Items: make([]ItemCount, len(base.Items), len(base.Items)+len(d.UpsertItems)),
	}
	copy(out.Pairs, base.Pairs)
	copy(out.Items, base.Items)
	for i, pc := range out.Pairs {
		pairAt[pc.Pair] = i
	}
	for i, ic := range out.Items {
		itemAt[ic.Extent] = i
	}
	for _, p := range d.DeletePairs {
		i, ok := pairAt[p]
		if !ok {
			return Snapshot{}, fmt.Errorf("%w: delete of absent pair %v", ErrDeltaConflict, p)
		}
		delete(pairAt, p)
		last := len(out.Pairs) - 1
		if i != last {
			out.Pairs[i] = out.Pairs[last]
			pairAt[out.Pairs[i].Pair] = i
		}
		out.Pairs = out.Pairs[:last]
	}
	for _, e := range d.DeleteItems {
		i, ok := itemAt[e]
		if !ok {
			return Snapshot{}, fmt.Errorf("%w: delete of absent item %v", ErrDeltaConflict, e)
		}
		delete(itemAt, e)
		last := len(out.Items) - 1
		if i != last {
			out.Items[i] = out.Items[last]
			itemAt[out.Items[i].Extent] = i
		}
		out.Items = out.Items[:last]
	}
	for _, pc := range d.UpsertPairs {
		if i, ok := pairAt[pc.Pair]; ok {
			out.Pairs[i] = pc
			continue
		}
		pairAt[pc.Pair] = len(out.Pairs)
		out.Pairs = append(out.Pairs, pc)
	}
	for _, ic := range d.UpsertItems {
		if i, ok := itemAt[ic.Extent]; ok {
			out.Items[i] = ic
			continue
		}
		itemAt[ic.Extent] = len(out.Items)
		out.Items = append(out.Items, ic)
	}
	if len(out.Pairs) == 0 {
		out.Pairs = nil
	}
	if len(out.Items) == 0 {
		out.Items = nil
	}
	out.sort()
	return out, nil
}
