package core

import (
	"fmt"
	"slices"

	"daccor/internal/blktrace"
)

// MergeIndex is the incremental merged-view maintainer: it holds the
// live union of N source snapshots — the same value MergeSnapshots
// computes from scratch — and keeps it current in O(changed entries)
// as sources publish new exports, deltas, or disappear. It is the one
// summing merge, used only where sources can overlap: the engine's
// fleet-wide view (devices share extents), the fleet aggregator, and a
// device several collectors mirror. A device's partitions never overlap
// and never come here (see Exporter). Those views are re-read on every
// epoch bump, and re-merging everything per read is O(total live
// entries) with two fresh dedup maps; the CHH literature maintains its
// combined summaries per update for exactly this reason. The index pays
// O(source entries) once when a source's full state arrives and
// O(delta) for a delta. A bounded read (State) is one linear pass over
// the pair arena and builds nothing table-sized; only the unbounded read
// (Snapshot) materializes the sorted export, paying O(changed since the
// last one · log changed) to patch it while it has a predecessor to
// patch.
//
// Layout follows the PR 5 probe discipline: per side (items, pairs) an
// open-addressing oaMap keys into an arena of union entries holding a
// uint64 running sum, a holder refcount, and a Tier2 holder count.
// min(sum, MaxUint32) reproduces chained satAdd exactly — pairwise
// saturating addition of uint32 values equals the true sum clamped at
// the ceiling — and "any holder at Tier2" reproduces max-tier, since
// snapshot entries only carry Tier1 or Tier2 (the wire decoders reject
// anything else). Each source keeps a shadow table of its last-known
// contribution, so changing or removing a source replays its previous
// state as a negative delta without consulting the source again.
//
// Entries and slots are free-listed and scratch buffers are reused, so
// steady-state maintenance does not allocate; each materialized
// Snapshot is a fresh exact-size allocation (the previous one may
// still be referenced by readers) built by merging the previous sorted
// output with a sorted patch of the keys changed since — allocation
// count per read is constant, independent of union size. The change
// list exists only beside a materialized export and never outgrows it,
// so an index that is only asked for bounded reads keeps none.
//
// A MergeIndex is not safe for concurrent use; callers wrap it in the
// cache lock that already guards their merged view.
type MergeIndex struct {
	items   mergeSide[blktrace.Extent, ItemCount]
	pairs   mergeSide[blktrace.Pair, PairCount]
	sources map[string]*mergeSource
}

// mergeSource is one source's shadow: its last-known contribution to
// the union, keyed for O(1) lookup during reconcile and delta apply.
type mergeSource struct {
	items shadowTable[blktrace.Extent]
	pairs shadowTable[blktrace.Pair]
	// base marks the capture the shadow mirrors, when it was last fed
	// by UpdateRaw; the next capture of the same analyzer then only has
	// to replay what changed since. Zero after any other kind of feed.
	base captureMark
}

// NewMergeIndex returns an empty maintainer.
func NewMergeIndex() *MergeIndex {
	m := &MergeIndex{sources: make(map[string]*mergeSource)}
	m.items.init(itemOps)
	m.pairs.init(pairOps)
	return m
}

// Sources returns the number of sources currently contributing.
func (m *MergeIndex) Sources() int { return len(m.sources) }

// Len returns the union's live entry counts (items, pairs).
func (m *MergeIndex) Len() (items, pairs int) { return m.items.live, m.pairs.live }

// source returns (creating if needed) the shadow for the named source,
// with capacity hints for a first full feed of ni items / np pairs.
func (m *MergeIndex) source(name string, ni, np int) *mergeSource {
	src := m.sources[name]
	if src == nil {
		src = &mergeSource{}
		src.items.init(ni)
		src.pairs.init(np)
		m.sources[name] = src
	}
	return src
}

// Update reconciles the union with a source's full current state: the
// difference against the source's shadow is applied entry by entry
// (new keys added, changed counters adjusted, vanished keys replayed
// as negatives), then the shadow is replaced. An unknown source is
// registered; an anti-entropy full sync is therefore exactly
// remove+full-apply, fused so unchanged entries never move. Snapshot
// entries must carry Tier1 or Tier2, which every real export does.
func (m *MergeIndex) Update(source string, snap Snapshot) {
	src := m.source(source, len(snap.Items), len(snap.Pairs))
	src.base = captureMark{}
	m.items.reconcile(&src.items, len(snap.Items), func(i int) (blktrace.Extent, uint32, Tier) {
		e := snap.Items[i]
		return e.Extent, e.Count, e.Tier
	})
	m.pairs.reconcile(&src.pairs, len(snap.Pairs), func(i int) (blktrace.Pair, uint32, Tier) {
		e := snap.Pairs[i]
		return e.Pair, e.Count, e.Tier
	})
}

// UpdateRaw is Update fed from a RawSnapshot capture, skipping the
// sorted-export derivation entirely: reconcile is order-insensitive,
// so the capture's recency-order entries feed the index directly. This
// is how the engine's fleet-wide view is fed, one source per partition
// capture of each device, and there successive captures of one
// analyzer feed one source: when raw follows the capture the source was
// last fed from and its discard log reaches back that far, only the
// entries stamped since are upserted and the logged discards dropped —
// O(changed), with no pass over the shadow — and patched is true. A
// discard of a key the shadow lacks (inserted and evicted between the
// two captures) is a no-op here, where ApplyDelta would call it a
// conflict. Any other capture reconciles in full, in O(partition
// entries) and still without a sort.
func (m *MergeIndex) UpdateRaw(source string, raw *RawSnapshot) (patched bool) {
	src := m.source(source, len(raw.items), len(raw.pairs))
	goneItems, gonePairs, patched := raw.goneSince(src.base)
	if patched {
		// Discards first, as ApplyDelta: a key discarded and then seen
		// again is in both lists.
		for _, k := range gonePairs {
			m.pairs.dropKey(&src.pairs, k)
		}
		for _, k := range goneItems {
			m.items.dropKey(&src.items, k)
		}
		for i, stamp := range raw.pairLog.stamps {
			if stamp > src.base.seq {
				e := raw.pairs[i]
				m.pairs.upsert(&src.pairs, e.Key, e.Count, e.Tier)
			}
		}
		for i, stamp := range raw.itemLog.stamps {
			if stamp > src.base.seq {
				e := raw.items[i]
				m.items.upsert(&src.items, e.Key, e.Count, e.Tier)
			}
		}
	} else {
		m.items.reconcile(&src.items, len(raw.items), func(i int) (blktrace.Extent, uint32, Tier) {
			e := raw.items[i]
			return e.Key, e.Count, e.Tier
		})
		m.pairs.reconcile(&src.pairs, len(raw.pairs), func(i int) (blktrace.Pair, uint32, Tier) {
			e := raw.pairs[i]
			return e.Key, e.Count, e.Tier
		})
	}
	src.base = raw.mark()
	return patched
}

// ApplyDelta advances a source by a SnapshotDelta in O(delta): upserts
// carry the absolute new per-source state, deletes name keys the
// source no longer holds. The delta must fit the source's shadow — a
// delete of a key the shadow lacks returns ErrDeltaConflict, exactly
// as SnapshotDelta.Apply rejects a mismatched base, and the caller
// falls back to Update with the source's full state, which self-heals
// any partially applied entries. Deletes apply before upserts,
// matching SnapshotDelta.Apply.
func (m *MergeIndex) ApplyDelta(source string, d SnapshotDelta) error {
	src := m.source(source, len(d.UpsertItems), len(d.UpsertPairs))
	src.base = captureMark{}
	for _, k := range d.DeletePairs {
		if err := m.pairs.deleteKey(&src.pairs, k); err != nil {
			return err
		}
	}
	for _, k := range d.DeleteItems {
		if err := m.items.deleteKey(&src.items, k); err != nil {
			return err
		}
	}
	for _, pc := range d.UpsertPairs {
		m.pairs.upsert(&src.pairs, pc.Pair, pc.Count, pc.Tier)
	}
	for _, ic := range d.UpsertItems {
		m.items.upsert(&src.items, ic.Extent, ic.Count, ic.Tier)
	}
	return nil
}

// Remove replays the source's last-known state as a negative delta and
// forgets it. Removing an unknown source is a no-op. This is the
// device-unregister / collector-failed path.
func (m *MergeIndex) Remove(source string) {
	src := m.sources[source]
	if src == nil {
		return
	}
	m.items.removeAll(&src.items)
	m.pairs.removeAll(&src.pairs)
	delete(m.sources, source)
}

// Snapshot materializes the union as a sorted export, identical to
// MergeSnapshots over the sources' current states. Unchanged reads
// return the previous value; otherwise the dirty keys are deduped,
// their current values sorted into a patch, and the patch is merged
// with the previous sorted output in one linear pass — or, with no
// previous output to patch (the first call, and the first after more
// changed than it held), the arena is sorted in full. The result is
// read-only and remains valid after further index mutations.
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
// aggregate plus everything needed to re-materialize the sorted export
// incrementally.
type mergeSide[K comparable, E any] struct {
	idx   *oaMap[K]
	arena []unionEntry[K]
	free  int32
	live  int

	// prev is the last materialized output; immutable once returned.
	// It is kept for as long as patching it is cheaper than sorting the
	// arena again — see touch.
	prev   []E
	prevOK bool

	// dirty lists the keys touched since prev was materialized
	// (duplicates allowed — deduped through dirtySet at read time). It
	// is empty whenever prev is not valid.
	dirty    []K
	dirtySet map[K]struct{}
	patch    []E

	ops exportOps[K, E]
}

func (u *mergeSide[K, E]) init(ops exportOps[K, E]) {
	u.idx = newOAMap[K](0)
	u.free = nilSlot
	u.dirtySet = make(map[K]struct{})
	u.ops = ops
}

func (u *mergeSide[K, E]) lookup(k K) uint32 {
	slot, ok := u.idx.Get(k)
	if !ok {
		return 0
	}
	return clampCount(u.arena[slot].sum)
}

// touch records that k's union entry changed, for the next
// materialize to patch prev with. Nothing is recorded without a prev,
// and a list grown longer than prev is dropped together with it: a
// patch at least as long as the table patches nothing, so the next
// materialize sorts from the arena instead. That bounds the list by the
// export it belongs to however long the index goes unread.
func (u *mergeSide[K, E]) touch(k K) {
	if !u.prevOK {
		return
	}
	u.dirty = append(u.dirty, k)
	if len(u.dirty) > len(u.prev) {
		u.dirty, u.prev, u.prevOK = nil, nil, false
	}
}

// add records one more holder of k contributing count at tier.
func (u *mergeSide[K, E]) add(k K, count uint32, tier Tier) {
	u.touch(k)
	if slot, ok := u.idx.Get(k); ok {
		e := &u.arena[slot]
		e.sum += uint64(count)
		e.refs++
		if tier == Tier2 {
			e.t2++
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
	e := &u.arena[slot]
	*e = unionEntry[K]{key: k, sum: uint64(count), refs: 1, next: nilSlot}
	if tier == Tier2 {
		e.t2 = 1
	}
	u.idx.Set(k, slot)
	u.live++
}

// sub removes one holder's contribution; the key must be held (the
// caller's shadow proves it).
func (u *mergeSide[K, E]) sub(k K, count uint32, tier Tier) {
	u.touch(k)
	slot, _ := u.idx.Get(k)
	e := &u.arena[slot]
	e.sum -= uint64(count)
	e.refs--
	if tier == Tier2 {
		e.t2--
	}
	if e.refs == 0 {
		u.idx.Delete(k)
		var zero K
		e.key, e.sum, e.t2 = zero, 0, 0
		e.next = u.free
		u.free = slot
		u.live--
	}
}

// replace adjusts one holder's contribution in place (refs unchanged).
func (u *mergeSide[K, E]) replace(k K, oldCount uint32, oldTier Tier, newCount uint32, newTier Tier) {
	u.touch(k)
	slot, _ := u.idx.Get(k)
	e := &u.arena[slot]
	e.sum = e.sum - uint64(oldCount) + uint64(newCount)
	if oldTier == Tier2 {
		e.t2--
	}
	if newTier == Tier2 {
		e.t2++
	}
}

// reconcile replaces shadow sh's state with the n entries served by
// at, adjusting the union by exactly the difference: present keys are
// re-marked (and adjusted when their value changed), absent keys are
// inserted, and unmarked shadow survivors are swept as deletions.
func (u *mergeSide[K, E]) reconcile(sh *shadowTable[K], n int, at func(int) (K, uint32, Tier)) {
	sh.mark++
	for i := 0; i < n; i++ {
		k, count, tier := at(i)
		if slot, ok := sh.idx.Get(k); ok {
			e := &sh.arena[slot]
			e.mark = sh.mark
			if e.count != count || e.tier != tier {
				u.replace(k, e.count, e.tier, count, tier)
				e.count, e.tier = count, tier
			}
			continue
		}
		sh.insert(k, count, tier)
		u.add(k, count, tier)
	}
	if sh.live == n { // every live shadow entry was re-marked
		return
	}
	for i := range sh.arena {
		e := &sh.arena[i]
		if e.mark == 0 || e.mark == sh.mark {
			continue
		}
		u.sub(e.key, e.count, e.tier)
		sh.deleteSlot(int32(i))
	}
}

// upsert sets one key's per-source state (the delta upsert path).
func (u *mergeSide[K, E]) upsert(sh *shadowTable[K], k K, count uint32, tier Tier) {
	if slot, ok := sh.idx.Get(k); ok {
		e := &sh.arena[slot]
		if e.count != count || e.tier != tier {
			u.replace(k, e.count, e.tier, count, tier)
			e.count, e.tier = count, tier
		}
		return
	}
	sh.insert(k, count, tier)
	u.add(k, count, tier)
}

// deleteKey removes one key from the shadow and the union, failing
// with ErrDeltaConflict when the shadow does not hold it.
func (u *mergeSide[K, E]) deleteKey(sh *shadowTable[K], k K) error {
	if !u.dropKey(sh, k) {
		return fmt.Errorf("%w: delete of absent key %v", ErrDeltaConflict, k)
	}
	return nil
}

// dropKey removes one key from the shadow and the union if the shadow
// holds it, and reports whether it did.
func (u *mergeSide[K, E]) dropKey(sh *shadowTable[K], k K) bool {
	slot, ok := sh.idx.Get(k)
	if !ok {
		return false
	}
	e := &sh.arena[slot]
	u.sub(k, e.count, e.tier)
	sh.deleteSlot(slot)
	return true
}

// removeAll replays every shadow entry as a negative delta (the source
// removal path). The shadow is left empty but reusable.
func (u *mergeSide[K, E]) removeAll(sh *shadowTable[K]) {
	if sh.live == 0 {
		return
	}
	for i := range sh.arena {
		e := &sh.arena[i]
		if e.mark == 0 {
			continue
		}
		u.sub(e.key, e.count, e.tier)
		sh.deleteSlot(int32(i))
	}
}

// materialize returns the union's sorted export, rebuilding only what
// changed: the previous output minus the dirty keys, linearly merged
// with a freshly sorted patch of the dirty keys' current values
// (patchSorted) — or the arena sorted in full when there is no previous
// output. The output is a new exact-size slice (readers may still hold
// the previous one); all working storage is reused across calls.
func (u *mergeSide[K, E]) materialize() []E {
	if u.prevOK && len(u.dirty) == 0 {
		return u.prev
	}
	if !u.prevOK {
		out := make([]E, 0, u.live)
		for i := range u.arena {
			e := &u.arena[i]
			if e.refs > 0 {
				out = append(out, u.ops.mk(e.key, clampCount(e.sum), tierOfUnion(e.t2)))
			}
		}
		slices.SortFunc(out, u.ops.cmp)
		u.prev, u.prevOK = out, true
		return out
	}
	clear(u.dirtySet)
	for _, k := range u.dirty {
		u.dirtySet[k] = struct{}{}
	}
	u.patch = u.patch[:0]
	for k := range u.dirtySet {
		if slot, ok := u.idx.Get(k); ok {
			e := &u.arena[slot]
			u.patch = append(u.patch, u.ops.mk(k, clampCount(e.sum), tierOfUnion(e.t2)))
		}
	}
	slices.SortFunc(u.patch, u.ops.cmp)
	out := patchSorted(make([]E, 0, u.live), u.prev, u.patch, u.ops, func(k K) bool {
		_, dirty := u.dirtySet[k]
		return dirty
	})
	u.dirty = u.dirty[:0]
	u.prev = out
	return out
}

// tierOfUnion folds the Tier2 holder count back to the exported tier.
func tierOfUnion(t2 int32) Tier {
	if t2 > 0 {
		return Tier2
	}
	return Tier1
}

// shadowTable is one source's last-known per-key state: an oaMap into
// a free-listed arena, with a mark generation for reconcile sweeps.
type shadowTable[K comparable] struct {
	idx   *oaMap[K]
	arena []shadowEntry[K]
	free  int32
	live  int
	// mark is the reconcile generation; live entries carry mark >= 1
	// (0 marks a free slot), so it doubles as the liveness flag.
	mark uint64
}

type shadowEntry[K comparable] struct {
	key   K
	count uint32
	tier  Tier
	mark  uint64
	next  int32
}

func (sh *shadowTable[K]) init(hint int) {
	sh.idx = newOAMap[K](hint)
	sh.free = nilSlot
	sh.mark = 1
	if hint > 0 {
		sh.arena = make([]shadowEntry[K], 0, hint)
	}
}

func (sh *shadowTable[K]) insert(k K, count uint32, tier Tier) {
	var slot int32
	if sh.free != nilSlot {
		slot = sh.free
		sh.free = sh.arena[slot].next
	} else {
		sh.arena = append(sh.arena, shadowEntry[K]{})
		slot = int32(len(sh.arena) - 1)
	}
	sh.arena[slot] = shadowEntry[K]{key: k, count: count, tier: tier, mark: sh.mark, next: nilSlot}
	sh.idx.Set(k, slot)
	sh.live++
}

func (sh *shadowTable[K]) deleteSlot(slot int32) {
	e := &sh.arena[slot]
	sh.idx.Delete(e.key)
	var zero K
	e.key, e.mark = zero, 0
	e.next = sh.free
	sh.free = slot
	sh.live--
}

// checkInvariants verifies the maintainer's accounting: every union
// entry's sum, refcount, and Tier2 count must equal the aggregation of
// the shadows, both oaMaps must satisfy their probe invariants, live
// counts must match, and a change list exists only beside the export
// it patches and is no longer than it. Test-only (differential suite).
func (m *MergeIndex) checkInvariants() error {
	if err := checkSideInvariants(&m.items, m.sources, func(s *mergeSource) *shadowTable[blktrace.Extent] { return &s.items }); err != nil {
		return fmt.Errorf("items: %w", err)
	}
	if err := checkSideInvariants(&m.pairs, m.sources, func(s *mergeSource) *shadowTable[blktrace.Pair] { return &s.pairs }); err != nil {
		return fmt.Errorf("pairs: %w", err)
	}
	return nil
}

func checkSideInvariants[K comparable, E any](u *mergeSide[K, E], sources map[string]*mergeSource, side func(*mergeSource) *shadowTable[K]) error {
	if err := u.idx.checkInvariants(); err != nil {
		return err
	}
	if !u.prevOK && len(u.dirty) != 0 {
		return fmt.Errorf("change list holds %d keys with no export to patch", len(u.dirty))
	}
	if len(u.dirty) > len(u.prev) {
		return fmt.Errorf("change list (%d keys) outgrew the export it patches (%d entries)", len(u.dirty), len(u.prev))
	}
	type agg struct {
		sum  uint64
		refs int32
		t2   int32
	}
	want := make(map[K]agg)
	for name, src := range sources {
		sh := side(src)
		if err := sh.idx.checkInvariants(); err != nil {
			return fmt.Errorf("source %q shadow: %w", name, err)
		}
		live := 0
		for i := range sh.arena {
			e := &sh.arena[i]
			if e.mark == 0 {
				continue
			}
			live++
			if slot, ok := sh.idx.Get(e.key); !ok || int(slot) != i {
				return fmt.Errorf("source %q shadow slot %d (key %v) not indexed", name, i, e.key)
			}
			a := want[e.key]
			a.sum += uint64(e.count)
			a.refs++
			if e.tier == Tier2 {
				a.t2++
			}
			want[e.key] = a
		}
		if live != sh.live {
			return fmt.Errorf("source %q shadow live %d, counted %d", name, sh.live, live)
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
			return fmt.Errorf("union holds %v with no shadow holder", e.key)
		}
		if a.sum != e.sum || a.refs != e.refs || a.t2 != e.t2 {
			return fmt.Errorf("union %v = {sum %d refs %d t2 %d}, shadows say {sum %d refs %d t2 %d}",
				e.key, e.sum, e.refs, e.t2, a.sum, a.refs, a.t2)
		}
		if slot, ok := u.idx.Get(e.key); !ok || int(slot) != i {
			return fmt.Errorf("union slot %d (key %v) not indexed", i, e.key)
		}
		delete(want, e.key)
	}
	if len(want) > 0 {
		return fmt.Errorf("%d shadow-held keys missing from the union", len(want))
	}
	if live != u.live {
		return fmt.Errorf("union live %d, counted %d", u.live, live)
	}
	return nil
}
