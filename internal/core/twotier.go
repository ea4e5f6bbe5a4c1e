// Package core implements the paper's primary contribution: the online
// analysis module that characterizes data access correlations in real
// time using a bounded-memory synopsis.
//
// The synopsis consists of two two-tier tables inspired by ARC
// (Megiddo & Modha, FAST '03): an item table of individual extents and
// a correlation table of extent pairs seen together in a transaction.
// Each table keeps a tier T1 of entries seen infrequently and a tier T2
// of entries seen frequently; both tiers are LRU lists of fixed
// capacity. Unlike ARC there are no ghost lists and no adaptive tier
// sizing; instead of immediate eviction, entries can be demoted to the
// LRU end of their tier, making them next in line for eviction. This
// blends the three dimensions the paper cares about: sequentiality
// (extents), frequency (tier promotion by counter), and recency (LRU).
package core

import (
	"fmt"
	"math"
)

// TouchResult describes what a Table.Touch call did.
type TouchResult int

const (
	// Inserted: the key was absent and was inserted into T1.
	Inserted TouchResult = iota
	// HitT1: the key was found in T1 (no promotion).
	HitT1
	// HitT2: the key was found in T2.
	HitT2
	// Promoted: the key was found in T1 and its counter reached the
	// promote threshold, moving it to T2.
	Promoted
)

// String names the result for logs and tests.
func (r TouchResult) String() string {
	switch r {
	case Inserted:
		return "inserted"
	case HitT1:
		return "hitT1"
	case HitT2:
		return "hitT2"
	case Promoted:
		return "promoted"
	}
	return fmt.Sprintf("TouchResult(%d)", int(r))
}

// Tier identifies which tier an entry lives in.
type Tier int

const (
	// TierNone means the key is not present.
	TierNone Tier = 0
	// Tier1 holds entries seen infrequently (once, below threshold).
	Tier1 Tier = 1
	// Tier2 holds entries seen frequently (promoted).
	Tier2 Tier = 2
)

// nilSlot is the null arena index, playing the role a nil pointer did
// when entries were individually heap-allocated.
const nilSlot int32 = -1

// entry is a node in the table's entry arena. Entries are linked into
// one of the two intrusive LRU lists by arena index rather than by
// pointer: slots are stable for the life of an entry (the arena only
// grows, never compacts), 32-bit indices halve the link footprint on
// 64-bit hosts, and a slab of entries is one allocation instead of one
// per insert. A free entry is chained into the free list through its
// next field and carries tier TierNone.
//
// stamp is the table's capture sequence (Table.seq) at the entry's last
// content change — insert, count++, promote; recency moves do not count,
// an export does not show them. It sits in what was padding between
// count and tier, on the cache line the counter already dirties, so the
// entry is no larger and a touch writes no extra line.
type entry[K comparable] struct {
	key        K
	count      uint32
	stamp      uint32
	tier       Tier
	prev, next int32
}

// lruList is an intrusive doubly linked list of arena slots; front is
// MRU, back is LRU. Link updates live on Table (they need the arena).
type lruList struct {
	front, back int32
	size        int
}

func newLRUList() lruList { return lruList{front: nilSlot, back: nilSlot} }

func (t *Table[K]) listPushFront(l *lruList, s int32) {
	e := &t.arena[s]
	e.prev = nilSlot
	e.next = l.front
	if l.front != nilSlot {
		t.arena[l.front].prev = s
	}
	l.front = s
	if l.back == nilSlot {
		l.back = s
	}
	l.size++
}

func (t *Table[K]) listPushBack(l *lruList, s int32) {
	e := &t.arena[s]
	e.next = nilSlot
	e.prev = l.back
	if l.back != nilSlot {
		t.arena[l.back].next = s
	}
	l.back = s
	if l.front == nilSlot {
		l.front = s
	}
	l.size++
}

func (t *Table[K]) listRemove(l *lruList, s int32) {
	e := &t.arena[s]
	if e.prev != nilSlot {
		t.arena[e.prev].next = e.next
	} else {
		l.front = e.next
	}
	if e.next != nilSlot {
		t.arena[e.next].prev = e.prev
	} else {
		l.back = e.prev
	}
	e.prev, e.next = nilSlot, nilSlot
	l.size--
}

func (t *Table[K]) listMoveToFront(l *lruList, s int32) {
	if l.front == s {
		return
	}
	t.listRemove(l, s)
	t.listPushFront(l, s)
}

func (t *Table[K]) listMoveToBack(l *lruList, s int32) {
	if l.back == s {
		return
	}
	t.listRemove(l, s)
	t.listPushBack(l, s)
}

// TableConfig configures a two-tier table.
type TableConfig struct {
	// Capacity1 and Capacity2 are the entry capacities of T1 and T2.
	// The paper uses equal sizes (C each) but the split is tunable for
	// the tier-ratio ablation.
	Capacity1, Capacity2 int
	// PromoteThreshold is the counter value at which a T1 entry is
	// promoted to T2. The paper promotes "upon a cache hit in the
	// first [tier]", i.e. on the second sighting; that is threshold 2.
	PromoteThreshold uint32
}

// DefaultPromoteThreshold promotes on the second sighting, matching the
// paper's "items are promoted to the second tier upon a cache hit in
// the first".
const DefaultPromoteThreshold = 2

func (c TableConfig) validate() error {
	if c.Capacity1 <= 0 || c.Capacity2 <= 0 {
		return fmt.Errorf("core: tier capacities must be positive (got %d, %d)", c.Capacity1, c.Capacity2)
	}
	if int64(c.Capacity1)+int64(c.Capacity2) > int64(math.MaxInt32) {
		return fmt.Errorf("core: total capacity %d exceeds the 2^31-1 arena slot limit",
			int64(c.Capacity1)+int64(c.Capacity2))
	}
	if c.PromoteThreshold < 2 {
		return fmt.Errorf("core: promote threshold must be >= 2 (got %d)", c.PromoteThreshold)
	}
	return nil
}

// arenaMaxPrealloc caps the entry slab (and index hint) reserved up
// front, so a table with a huge configured capacity (legitimate, or
// from a forged snapshot header) does not pre-allocate gigabytes before
// any entry exists. Beyond this the arena grows by amortized append,
// still never shrinking — slots stay stable and reusable.
const arenaMaxPrealloc = 1 << 20

// Table is a fixed-capacity two-tier LRU/frequency table over keys of
// type K. All operations are O(1). Table is not safe for concurrent
// use; the analyzer serializes access.
//
// Entries live in a pre-allocated arena and evicted slots are recycled
// through a free list, so after warm-up the steady-state Touch path
// performs no heap allocation.
type Table[K Key] struct {
	cfg   TableConfig
	arena []entry[K] // entry slab; grows to at most Capacity1+Capacity2
	free  int32      // head of the free-slot list, chained via entry.next
	// seq numbers the captures taken of this table (see capture): it is
	// what touch stamps into an entry, so a reader holding the export of
	// capture b finds what changed since among the entries stamped > b.
	// It sits in free's padding, on the line touch reads arena from.
	seq     uint32
	freeLen int
	t1, t2  lruList
	// idx maps keys to arena slots via flat open addressing (see
	// oaindex.go) instead of a Go map: probe sequences stay within one
	// or two cache lines and the steady-state Touch path pays no
	// map-bucket indirection.
	idx     tableIndex
	onEvict func(K, uint32) // key and its count at eviction time
	// onEvictSlot, when set, additionally reports the evicted entry's
	// arena slot — the analyzer threads its intrusive pair-membership
	// links through slots and needs the index to unlink in O(1). It is
	// called before the slot is recycled, so keyAt(slot) is still valid
	// inside the callback. Like onEvict it must not call back into the
	// table.
	onEvictSlot func(int32, K, uint32)

	evictions  uint64
	promotions uint64

	// gone is a ring of the keys most recently discarded (evicted or
	// removed) — the half of "what changed" that entry stamps cannot
	// show. The n-th discard sits at gone[(n-1)&(len(gone)-1)] and
	// discards counts them all, so a capture that carries the ring lets
	// a reader recover exactly the discards since an earlier capture, or
	// see that the ring has lapped them. Allocated on the first discard.
	gone     []K
	discards uint64
}

// NewTable returns an empty table. onEvict, if non-nil, is called with
// the key and final counter of every entry the table discards (from
// either tier); it must not call back into the table.
func NewTable[K Key](cfg TableConfig, onEvict func(K, uint32)) (*Table[K], error) {
	if cfg.PromoteThreshold == 0 {
		cfg.PromoteThreshold = DefaultPromoteThreshold
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	hint := cfg.Capacity1 + cfg.Capacity2
	if hint > arenaMaxPrealloc {
		hint = arenaMaxPrealloc
	}
	t := &Table[K]{
		cfg:     cfg,
		arena:   make([]entry[K], 0, hint),
		free:    nilSlot,
		t1:      newLRUList(),
		t2:      newLRUList(),
		onEvict: onEvict,
		seq:     1,
	}
	t.idx.indexInit(hint)
	return t, nil
}

// alloc takes a slot from the free list, or extends the arena while it
// is still below total capacity (the only allocating path, exercised
// only during warm-up).
func (t *Table[K]) alloc(k K, count uint32, tier Tier) int32 {
	if s := t.free; s != nilSlot {
		t.free = t.arena[s].next
		t.freeLen--
		t.arena[s] = entry[K]{key: k, count: count, stamp: t.seq, tier: tier, prev: nilSlot, next: nilSlot}
		return s
	}
	t.arena = append(t.arena, entry[K]{key: k, count: count, stamp: t.seq, tier: tier, prev: nilSlot, next: nilSlot})
	return int32(len(t.arena) - 1)
}

// goneLogLen sizes the discard ring for a table of the given total
// capacity: the largest power of two within an eighth of it (C/4 keys
// when both tiers hold C), and at least minGoneLog so that tables too
// small to matter still log something.
func goneLogLen(capacity int) int {
	n := minGoneLog
	for n*2 <= capacity/8 {
		n *= 2
	}
	return n
}

const minGoneLog = 8

// freeSlot logs the slot's key as discarded and recycles the slot onto
// the free list, clearing the key so stale state cannot leak into a
// future occupant.
func (t *Table[K]) freeSlot(s int32) {
	if t.gone == nil {
		t.gone = make([]K, goneLogLen(t.Capacity()))
	}
	t.gone[t.discards&uint64(len(t.gone)-1)] = t.arena[s].key
	t.discards++
	t.arena[s] = entry[K]{tier: TierNone, prev: nilSlot, next: t.free}
	t.free = s
	t.freeLen++
}

// keyAt reads the key stored in an arena slot. Callers must hold a live
// slot (from touch, or inside an eviction callback).
func (t *Table[K]) keyAt(s int32) K { return t.arena[s].key }

func (t *Table[K]) evict(l *lruList, s int32) {
	k, c := t.arena[s].key, t.arena[s].count
	t.listRemove(l, s)
	t.indexDelete(hashOf(&t.idx.seed, k), k)
	t.evictions++
	if t.onEvictSlot != nil {
		t.onEvictSlot(s, k, c)
	}
	if t.onEvict != nil {
		t.onEvict(k, c)
	}
	t.freeSlot(s)
}

// Touch records one sighting of key k: a hit moves the entry to the MRU
// position of its tier and increments its counter (promoting T1→T2 at
// the threshold, evicting the T2 LRU victim if T2 is full); a miss
// inserts the key at the T1 MRU position, evicting the T1 LRU victim if
// T1 is full.
func (t *Table[K]) Touch(k K) TouchResult {
	r, _ := t.touch(k)
	return r
}

// touch is Touch plus the arena slot now holding k, which the analyzer
// uses to maintain its intrusive pair-membership lists.
func (t *Table[K]) touch(k K) (TouchResult, int32) {
	h := hashOf(&t.idx.seed, k)
	if s := t.indexLookup(h, k); s != nilSlot {
		e := &t.arena[s]
		e.count++
		e.stamp = t.seq
		switch e.tier {
		case Tier1:
			if e.count >= t.cfg.PromoteThreshold {
				t.listRemove(&t.t1, s)
				if t.t2.size >= t.cfg.Capacity2 {
					t.evict(&t.t2, t.t2.back)
				}
				t.arena[s].tier = Tier2
				t.listPushFront(&t.t2, s)
				t.promotions++
				return Promoted, s
			}
			t.listMoveToFront(&t.t1, s)
			return HitT1, s
		default: // Tier2
			t.listMoveToFront(&t.t2, s)
			return HitT2, s
		}
	}
	if t.t1.size >= t.cfg.Capacity1 {
		// Eviction backward-shifts the index, so the insert below must
		// re-probe from k's home slot rather than reuse a position
		// found before the shift; indexInsert does exactly that.
		t.evict(&t.t1, t.t1.back)
	}
	s := t.alloc(k, 1, Tier1)
	t.listPushFront(&t.t1, s)
	t.indexInsert(h, s)
	return Inserted, s
}

// Demote moves the entry for k to the LRU end of its tier, marking it
// next for eviction without discarding its counter — the paper's
// "reduce the relevancy of an entry without immediate eviction". It
// reports whether the key was present.
func (t *Table[K]) Demote(k K) bool {
	s := t.lookup(k)
	if s == nilSlot {
		return false
	}
	switch t.arena[s].tier {
	case Tier1:
		t.listMoveToBack(&t.t1, s)
	default:
		t.listMoveToBack(&t.t2, s)
	}
	return true
}

// Remove deletes the entry for k without invoking the eviction
// callback, reporting whether it was present.
func (t *Table[K]) Remove(k K) bool {
	h := hashOf(&t.idx.seed, k)
	s := t.indexLookup(h, k)
	if s == nilSlot {
		return false
	}
	switch t.arena[s].tier {
	case Tier1:
		t.listRemove(&t.t1, s)
	default:
		t.listRemove(&t.t2, s)
	}
	t.indexDelete(h, k)
	t.freeSlot(s)
	return true
}

// Count returns the sighting counter for k and whether it is present.
func (t *Table[K]) Count(k K) (uint32, bool) {
	s := t.lookup(k)
	if s == nilSlot {
		return 0, false
	}
	return t.arena[s].count, true
}

// lookup returns the arena slot holding k, or nilSlot if absent.
func (t *Table[K]) lookup(k K) int32 {
	return t.indexLookup(hashOf(&t.idx.seed, k), k)
}

// TierOf returns which tier holds k (TierNone if absent).
func (t *Table[K]) TierOf(k K) Tier {
	s := t.lookup(k)
	if s == nilSlot {
		return TierNone
	}
	return t.arena[s].tier
}

// Len returns the total number of entries across both tiers.
func (t *Table[K]) Len() int { return t.t1.size + t.t2.size }

// LenT1 returns the number of entries in T1.
func (t *Table[K]) LenT1() int { return t.t1.size }

// LenT2 returns the number of entries in T2.
func (t *Table[K]) LenT2() int { return t.t2.size }

// Capacity returns the total entry capacity (T1 + T2).
func (t *Table[K]) Capacity() int { return t.cfg.Capacity1 + t.cfg.Capacity2 }

// Evictions returns the number of entries discarded so far.
func (t *Table[K]) Evictions() uint64 { return t.evictions }

// Promotions returns the number of T1→T2 promotions so far.
func (t *Table[K]) Promotions() uint64 { return t.promotions }

// Entry is an exported view of one table entry.
type Entry[K comparable] struct {
	Key   K
	Count uint32
	Tier  Tier
}

// Entries returns all entries with Count >= minCount, T2 first, each
// tier in MRU→LRU order. minCount 0 or 1 returns everything.
//
// The result is sized to the number of matching entries (counted in a
// first pass when minCount filters), not to Len(), so a high minCount
// over a large table does not allocate slots it will never fill.
func (t *Table[K]) Entries(minCount uint32) []Entry[K] {
	n := t.Len()
	if minCount > 1 {
		n = 0
		for _, l := range [...]*lruList{&t.t2, &t.t1} {
			for s := l.front; s != nilSlot; s = t.arena[s].next {
				if t.arena[s].count >= minCount {
					n++
				}
			}
		}
	}
	out := make([]Entry[K], 0, n)
	for _, l := range [...]*lruList{&t.t2, &t.t1} {
		for s := l.front; s != nilSlot; s = t.arena[s].next {
			e := &t.arena[s]
			if e.count >= minCount {
				out = append(out, Entry[K]{Key: e.key, Count: e.count, Tier: e.tier})
			}
		}
	}
	return out
}

// checkInvariants verifies structural invariants — list/index/tier
// consistency plus the arena accounting: every slot is either linked
// into exactly one tier list or chained exactly once through the free
// list (no double-free, no lost slots). It is used by tests (exposed
// via an export_test shim) and costs O(n).
func (t *Table[K]) checkInvariants() error {
	if t.t1.size > t.cfg.Capacity1 {
		return fmt.Errorf("T1 over capacity: %d > %d", t.t1.size, t.cfg.Capacity1)
	}
	if t.t2.size > t.cfg.Capacity2 {
		return fmt.Errorf("T2 over capacity: %d > %d", t.t2.size, t.cfg.Capacity2)
	}
	const (
		unseen = iota
		live
		freed
	)
	state := make([]uint8, len(t.arena))
	seen := 0
	for tierNo, l := range map[Tier]*lruList{Tier1: &t.t1, Tier2: &t.t2} {
		n := 0
		prev := nilSlot
		for s := l.front; s != nilSlot; s = t.arena[s].next {
			if s < 0 || int(s) >= len(t.arena) {
				return fmt.Errorf("tier %d links out-of-range slot %d", tierNo, s)
			}
			if state[s] != unseen {
				return fmt.Errorf("slot %d linked more than once", s)
			}
			state[s] = live
			e := &t.arena[s]
			if e.tier != tierNo {
				return fmt.Errorf("entry %v in list %d has tier %d", e.key, tierNo, e.tier)
			}
			if e.prev != prev {
				return fmt.Errorf("broken prev link at %v", e.key)
			}
			if t.lookup(e.key) != s {
				return fmt.Errorf("index mismatch for %v", e.key)
			}
			if tierNo == Tier2 && e.count < t.cfg.PromoteThreshold {
				return fmt.Errorf("T2 entry %v has count %d below threshold", e.key, e.count)
			}
			prev = s
			n++
		}
		if l.back != prev {
			return fmt.Errorf("back pointer mismatch in tier %d", tierNo)
		}
		if n != l.size {
			return fmt.Errorf("tier %d size %d, counted %d", tierNo, l.size, n)
		}
		seen += n
	}
	if seen != t.idx.used {
		return fmt.Errorf("index has %d entries, lists have %d", t.idx.used, seen)
	}
	nf := 0
	for s := t.free; s != nilSlot; s = t.arena[s].next {
		if s < 0 || int(s) >= len(t.arena) {
			return fmt.Errorf("free list links out-of-range slot %d", s)
		}
		if state[s] == live {
			return fmt.Errorf("slot %d is both live and free", s)
		}
		if state[s] == freed {
			return fmt.Errorf("slot %d freed twice (free-list cycle or double-free)", s)
		}
		state[s] = freed
		if t.arena[s].tier != TierNone {
			return fmt.Errorf("free slot %d has tier %d", s, t.arena[s].tier)
		}
		nf++
	}
	if nf != t.freeLen {
		return fmt.Errorf("free list length %d, counted %d", t.freeLen, nf)
	}
	if seen+nf != len(t.arena) {
		return fmt.Errorf("lost slots: %d live + %d free != %d arena slots", seen, nf, len(t.arena))
	}
	return t.checkIndexInvariants()
}
