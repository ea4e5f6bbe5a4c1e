package core

import (
	"fmt"
	"iter"
	"slices"

	"daccor/internal/blktrace"
)

// MergeIndex is the incremental merged-view maintainer: it holds the
// live union of N source snapshots — the same value MergeSnapshots
// computes from scratch — and keeps it current in O(source entries) per
// update as sources publish new exports or disappear. It is the one
// summing merge, used only where sources can overlap: the engine's
// fleet-wide view (devices share extents), the fleet aggregator, and a
// device several collectors mirror. A device's partitions never overlap
// and never come here (see Exporter). Those views are re-read on every
// epoch bump, and re-merging everything per read is O(total live
// entries) with two fresh dedup maps; the CHH literature maintains its
// combined summaries per update for exactly this reason. An update is
// one walk (walkSorted) from the source's previous export to its new
// one, touching the union only where they differ. A bounded read
// (State) is one linear pass over the pair arena and builds nothing
// table-sized; only the unbounded read (Snapshot) materializes the
// sorted export, by sorting the live arena — no served read asks for
// it, so the index keeps nothing between reads to make it cheaper.
//
// Layout follows the PR 5 probe discipline: per side (items, pairs) an
// open-addressing oaMap keys into an arena of union entries holding a
// uint64 running sum, a holder refcount, and a Tier2 holder count.
// min(sum, MaxUint32) reproduces chained satAdd exactly — pairwise
// saturating addition of uint32 values equals the true sum clamped at
// the ceiling — and "any holder at Tier2" reproduces max-tier, since
// snapshot entries only carry Tier1 or Tier2 (the wire decoders reject
// anything else). A source's contribution is the export it was last
// fed, held by reference and not copied: the index keeps nothing per
// source beyond it, so the union costs its own arena over the exports
// its callers already hold.
//
// Entries and slots are free-listed and the walk's scratch is reused,
// so steady-state maintenance does not allocate; each materialized
// Snapshot is a fresh exact-size slice per side, so the allocation
// count per read is constant, independent of union size.
//
// A MergeIndex is not safe for concurrent use; callers wrap it in the
// cache lock that already guards their merged view.
type MergeIndex struct {
	items mergeSide[blktrace.Extent, ItemCount]
	pairs mergeSide[blktrace.Pair, PairCount]
	// sources holds each source's last export, by reference, and the
	// Sync pass that last named it; mark numbers the passes.
	sources map[string]mergeSource
	mark    uint64
	yield   func(string, Snapshot) bool // syncOne, bound once
}

type mergeSource struct {
	snap Snapshot
	mark uint64
}

// NewMergeIndex returns an empty maintainer.
func NewMergeIndex() *MergeIndex {
	m := &MergeIndex{sources: make(map[string]mergeSource)}
	m.yield = m.syncOne
	m.items.init(itemOps)
	m.pairs.init(pairOps)
	return m
}

// Sources returns the number of sources currently contributing.
func (m *MergeIndex) Sources() int { return len(m.sources) }

// Len returns the union's live entry counts (items, pairs).
func (m *MergeIndex) Len() (items, pairs int) { return m.items.live, m.pairs.live }

// Update makes snap the source's contribution to the union, registering
// an unknown source: one merge walk per side from the export the source
// was last fed to snap (mergeSide.advance), so entries the two share
// never move and an anti-entropy full sync is exactly as cheap as any
// other. snap must hold each key at most once per table, at Tier1 or
// Tier2; the result is right in any order, and the walk is linear when
// snap is in export order, as every export is (Exporter.Export,
// Snapshot, SnapshotDelta.Apply and the wire decoders, which reject
// unsorted or duplicate records). The index keeps snap by reference
// until the source's next Update, so the caller must not mutate it
// afterwards — which is why the export the source already holds (the
// same arrays at the same lengths) returns at once.
func (m *MergeIndex) Update(source string, snap Snapshot) {
	src := m.sources[source]
	if !sameSlice(src.snap.Items, snap.Items) || !sameSlice(src.snap.Pairs, snap.Pairs) {
		m.items.advance(src.snap.Items, snap.Items)
		m.pairs.advance(src.snap.Pairs, snap.Pairs)
	}
	m.sources[source] = mergeSource{snap: snap, mark: m.mark}
}

// Sync makes the union equal to the live sources' exports: each one is
// Updated, and every source not named is taken out, one subtraction per
// entry. A merged view need not track who joined or left; a Sync where
// nothing changed walks and allocates nothing.
func (m *MergeIndex) Sync(sources iter.Seq2[string, Snapshot]) {
	m.mark++
	sources(m.yield)
	for id, src := range m.sources {
		if src.mark != m.mark {
			m.remove(id)
		}
	}
}

// syncOne is Sync's yield, held as a method value made once: a range
// loop over the unknown iterator would allocate on every Sync.
func (m *MergeIndex) syncOne(id string, snap Snapshot) bool {
	m.Update(id, snap)
	return true
}

// sameSlice reports whether a and b are one slice of one array.
func sameSlice[E any](a, b []E) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// remove takes the source's last export out of the union, one
// subtraction per entry, and forgets the source. Removing an unknown
// source is a no-op.
func (m *MergeIndex) remove(source string) {
	src, ok := m.sources[source]
	if !ok {
		return
	}
	for _, e := range src.snap.Items {
		m.items.sub(e)
	}
	for _, e := range src.snap.Pairs {
		m.pairs.sub(e)
	}
	delete(m.sources, source)
}

// Snapshot materializes the union as a sorted export, identical to
// MergeSnapshots over the sources' current states: the live arena
// copied into a fresh exact-size slice per side and sorted. Nothing is
// kept between calls, so each one costs O(live · log live); the result
// is the caller's and stays valid after further index mutations.
func (m *MergeIndex) Snapshot() Snapshot {
	var s Snapshot
	if p := m.pairs.materialize(); len(p) > 0 {
		s.Pairs = p
	}
	if it := m.items.materialize(); len(it) > 0 {
		s.Items = it
	}
	return s
}

// clampCount folds a union running sum back to the snapshot counter
// domain: min(sum, MaxUint32), which equals any chaining of satAdd
// over the same addends.
func clampCount(sum uint64) uint32 {
	if sum > 0xFFFF_FFFF {
		return 0xFFFF_FFFF
	}
	return uint32(sum)
}

// unionEntry is one key's aggregate across all sources.
type unionEntry[K comparable] struct {
	key K
	// sum is the true uint64 sum of the holders' counters; the exported
	// counter is clampCount(sum).
	sum uint64
	// refs counts holders; 0 marks a free arena slot.
	refs int32
	// t2 counts holders at Tier2; the exported tier is Tier2 iff t2>0.
	t2 int32
	// next links free slots.
	next int32
}

// mergeSide is one half (items or pairs) of the union: the keyed
// aggregate over a free-listed arena.
type mergeSide[K Key, E comparable] struct {
	idx   *oaMap[K]
	arena []unionEntry[K]
	free  int32
	live  int

	// gone holds a walk's old-side leftovers until its additions are
	// done; reused across walks.
	gone []E

	ops exportOps[K, E]
}

func (u *mergeSide[K, E]) init(ops exportOps[K, E]) {
	u.idx = newOAMap[K](0)
	u.free = nilSlot
	u.ops = ops
}

func (u *mergeSide[K, E]) lookup(k K) uint32 {
	slot, ok := u.idx.Get(k)
	if !ok {
		return 0
	}
	return clampCount(u.arena[slot].sum)
}

// advance moves one source's contribution from old to new, two exports
// of it in export order, in one walk: identical entries pass by, new's
// leftovers are added and then old's leftovers are subtracted. Adding
// first means a key whose counter or tier moved keeps at least one
// holder throughout, so its union entry is adjusted in place rather
// than freed and made again. The result is right for any two inputs
// whose keys are unique per side — an entry the walk leaves unpaired is
// added from one side or subtracted from the other, whatever its
// position — and the order only makes the walk linear. The loop body
// is kept small enough for the compiler to inline it into the walk;
// one it does not inline costs a closure call per entry.
func (u *mergeSide[K, E]) advance(old, new []E) {
	gone := u.gone[:0]
	for i, j := range walkSorted(old, new, u.ops.cmp) {
		if i >= 0 && j >= 0 && old[i] == new[j] {
			continue
		}
		if j >= 0 {
			u.add(new[j])
		}
		if i >= 0 {
			gone = append(gone, old[i])
		}
	}
	for _, e := range gone {
		u.sub(e)
	}
	u.gone = gone[:0]
}

// add records one more holder of e's key contributing e's counter at
// e's tier.
func (u *mergeSide[K, E]) add(e E) {
	k := u.ops.key(e)
	count, tier := u.ops.value(e)
	if slot, ok := u.idx.Get(k); ok {
		ue := &u.arena[slot]
		ue.sum += uint64(count)
		ue.refs++
		if tier == Tier2 {
			ue.t2++
		}
		return
	}
	var slot int32
	if u.free != nilSlot {
		slot = u.free
		u.free = u.arena[slot].next
	} else {
		u.arena = append(u.arena, unionEntry[K]{})
		slot = int32(len(u.arena) - 1)
	}
	ue := &u.arena[slot]
	*ue = unionEntry[K]{key: k, sum: uint64(count), refs: 1, next: nilSlot}
	if tier == Tier2 {
		ue.t2 = 1
	}
	u.idx.Set(k, slot)
	u.live++
}

// sub removes one holder's contribution; the key must be held (the
// source's previous export, which was added, proves it).
func (u *mergeSide[K, E]) sub(e E) {
	k := u.ops.key(e)
	count, tier := u.ops.value(e)
	slot, _ := u.idx.Get(k)
	ue := &u.arena[slot]
	ue.sum -= uint64(count)
	ue.refs--
	if tier == Tier2 {
		ue.t2--
	}
	if ue.refs == 0 {
		u.idx.Delete(k)
		var zero K
		ue.key, ue.sum, ue.t2 = zero, 0, 0
		ue.next = u.free
		u.free = slot
		u.live--
	}
}

// materialize returns the union's entries in export order, in a new
// exact-size slice.
func (u *mergeSide[K, E]) materialize() []E {
	out := make([]E, 0, u.live)
	for i := range u.arena {
		e := &u.arena[i]
		if e.refs > 0 {
			out = append(out, u.ops.mk(e.key, clampCount(e.sum), tierOfUnion(e.t2)))
		}
	}
	slices.SortFunc(out, u.ops.cmp)
	return out
}

// tierOfUnion folds the Tier2 holder count back to the exported tier.
func tierOfUnion(t2 int32) Tier {
	if t2 > 0 {
		return Tier2
	}
	return Tier1
}

// checkInvariants verifies the maintainer's accounting: every union
// entry's sum, refcount, and Tier2 count must equal the aggregation of
// the sources' stored exports, the oaMaps must satisfy their probe
// invariants, and live counts must match. Test-only (differential
// suite).
func (m *MergeIndex) checkInvariants() error {
	if err := checkSideInvariants(&m.items, m.sources, func(s Snapshot) []ItemCount { return s.Items }); err != nil {
		return fmt.Errorf("items: %w", err)
	}
	if err := checkSideInvariants(&m.pairs, m.sources, func(s Snapshot) []PairCount { return s.Pairs }); err != nil {
		return fmt.Errorf("pairs: %w", err)
	}
	return nil
}

func checkSideInvariants[K Key, E comparable](u *mergeSide[K, E], sources map[string]mergeSource, side func(Snapshot) []E) error {
	if err := u.idx.checkInvariants(); err != nil {
		return err
	}
	type agg struct {
		sum  uint64
		refs int32
		t2   int32
	}
	want := make(map[K]agg)
	for _, src := range sources {
		for _, e := range side(src.snap) {
			k := u.ops.key(e)
			count, tier := u.ops.value(e)
			a := want[k]
			a.sum += uint64(count)
			a.refs++
			if tier == Tier2 {
				a.t2++
			}
			want[k] = a
		}
	}
	live := 0
	for i := range u.arena {
		e := &u.arena[i]
		if e.refs == 0 {
			continue
		}
		live++
		a, ok := want[e.key]
		if !ok {
			return fmt.Errorf("union holds %v with no source holding it", e.key)
		}
		if a.sum != e.sum || a.refs != e.refs || a.t2 != e.t2 {
			return fmt.Errorf("union %v = {sum %d refs %d t2 %d}, sources say {sum %d refs %d t2 %d}",
				e.key, e.sum, e.refs, e.t2, a.sum, a.refs, a.t2)
		}
		if slot, ok := u.idx.Get(e.key); !ok || int(slot) != i {
			return fmt.Errorf("union slot %d (key %v) not indexed", i, e.key)
		}
		delete(want, e.key)
	}
	if len(want) > 0 {
		return fmt.Errorf("%d source-held keys missing from the union", len(want))
	}
	if live != u.live {
		return fmt.Errorf("union live %d, counted %d", u.live, live)
	}
	return nil
}
