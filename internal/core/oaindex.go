package core

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"daccor/internal/blktrace"
)

// Open-addressing key indexes for the synopsis hot path.
//
// The two-tier tables and the analyzer's pair-membership anchors used
// to be Go maps (Table.index map[K]int32, Analyzer.pairHeads
// map[Extent]int32). A general-purpose map is the wrong shape for a
// bounded synopsis: the key set never exceeds the arena capacity, every
// value is a small arena slot index, and the per-touch cost is
// dominated by hash-bucket indirection the table does not need. Like
// the hash-indexed bounded synopses of the Space-Saving and CMiner
// lines, the index here is a flat power-of-two slot array sized with
// the entry slab:
//
//   - linear probing, load factor <= 3/4, so a probe sequence is one or
//     two cache lines of 8-byte slots;
//   - a per-table random seed mixed into the key hash (see hashOf), so
//     hostile key patterns cannot line up probe chains across restarts;
//   - each slot caches the reduced 32-bit key hash, so a probe rejects
//     a non-matching slot without dereferencing the entry arena;
//   - tombstone-free deletion by backward shift: removing an entry
//     pulls every displaced successor one step toward its home slot,
//     keeping the invariant that no occupied slot is separated from its
//     home by an empty slot. Lookups therefore never scan tombstone
//     chains, and the load factor counts only live entries.
//
// Growth doubles the slot array and reinserts from the cached 32-bit
// hashes (never touching the keys), and only ever happens while the
// table is still filling toward its configured capacity — the same
// warm-up-only allocation regime as the entry arena.

// idxSlot is one open-addressing slot: the reduced key hash and the
// arena slot holding the key (nilSlot when empty). Eight bytes, so a
// 64-byte cache line holds eight probe steps.
type idxSlot struct {
	hash uint32
	slot int32
}

// minIndexSlots is the smallest slot array (power of two).
const minIndexSlots = 8

// IndexStats reports the open-addressing index's shape and probe
// behaviour — the observability the engine mirrors into /v1/metrics so
// an operator can see index pressure (mean probe length creeping up
// means the load factor or hash quality needs attention).
type IndexStats struct {
	// Lookups counts key lookups (hits and misses).
	Lookups uint64
	// Probes counts probe steps beyond the home slot, summed over all
	// lookups; Probes/Lookups is the mean displacement.
	Probes uint64
	// MaxProbe is the longest probe sequence any single lookup walked.
	MaxProbe uint32
	// Grows counts slot-array doublings (warm-up only).
	Grows uint64
	// Slots and Used are the slot-array size and live occupancy.
	Slots, Used int
}

// tableIndex is the open-addressing key→arena-slot index embedded in
// Table. Keys are not stored here — they live in the entry arena; a
// probe compares the cached 32-bit hash first and touches the arena
// only on a hash match.
type tableIndex struct {
	seed   hashSeed
	slots  []idxSlot
	mask   uint32
	used   int
	growAt int

	lookups  uint64
	probes   uint64
	maxProbe uint32
	grows    uint64
}

// nextPow2 returns the smallest power of two >= n (and >= minIndexSlots).
func nextPow2(n int) int {
	s := minIndexSlots
	for s < n {
		s <<= 1
	}
	return s
}

// indexInit sizes the slot array for hint live entries at a load
// factor of 3/4, so a table that stays within its pre-allocation hint
// never rehashes after construction.
func (ix *tableIndex) indexInit(hint int) {
	n := nextPow2(hint + hint/3 + 1)
	ix.seed = newHashSeed()
	ix.slots = make([]idxSlot, n)
	for i := range ix.slots {
		ix.slots[i].slot = nilSlot
	}
	ix.mask = uint32(n - 1)
	ix.growAt = n / 4 * 3
}

// Key is the closed set of key types the synopsis indexes hash: the
// extents and pairs of the two tables, and the integers their tests
// index by. Keeping the set closed lets hashOf hash each key's 64-bit
// words directly instead of going through the runtime's generic
// memory hash, which for a Pair is two calls (Extent's padding keeps
// the runtime from hashing a pair as one block).
type Key interface {
	blktrace.Extent | blktrace.Pair | uint64 | int
}

// hashSeed is one index's random hash key. Each index draws its own at
// construction from math/rand/v2's generator, which the runtime seeds
// from operating-system entropy, so a key set that collides under one
// process's seeds does not collide under the next one's.
type hashSeed [3]uint64

func newHashSeed() hashSeed {
	return hashSeed{rand.Uint64(), rand.Uint64(), rand.Uint64()}
}

// mix is the multiply-fold at the heart of the runtime's own memhash
// where AES is unavailable (wyhash): the 128-bit product of a and b,
// high half XOR low half. Every output bit depends on every input bit
// of both operands.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// hashOf reduces a key to the 32 bits the index stores and probes by:
// the key's 64-bit words, each XORed with a seed word, folded through
// two multiplies. An Extent is the words (Block, Len); a Pair is
// (A.Block, B.Block, A.Len<<32 | B.Len), so no padding byte is hashed
// and a pair costs the same two multiplies as an extent. The second mix
// folds in the third word (zero for an Extent) and spreads every word
// over the low bits the index masks by: the probe test holds it to an
// ideal hash's probe lengths on the key families block traces are
// made of (aligned strides, one block at many lengths, blocks that
// differ only in their high word, pairs that share an extent).
func hashOf[K Key](seed *hashSeed, k K) uint32 {
	var a, b, c uint64
	switch k := any(k).(type) {
	case blktrace.Extent:
		a, b = k.Block, uint64(k.Len)
	case blktrace.Pair:
		a, b, c = k.A.Block, k.B.Block, uint64(k.A.Len)<<32|uint64(k.B.Len)
	case uint64:
		a = k
	case int:
		a = uint64(k)
	}
	return uint32(mix(mix(a^seed[0], b^seed[1])^c, seed[2]))
}

// indexLookup returns the arena slot holding k, or nilSlot. The caller
// supplies the reduced hash so miss-then-insert paths hash once.
func (t *Table[K]) indexLookup(h uint32, k K) int32 {
	ix := &t.idx
	ix.lookups++
	mask := ix.mask
	i := h & mask
	var steps uint32
	for {
		s := ix.slots[i]
		if s.slot == nilSlot {
			break
		}
		if s.hash == h && t.arena[s.slot].key == k {
			ix.probes += uint64(steps)
			if steps > ix.maxProbe {
				ix.maxProbe = steps
			}
			return s.slot
		}
		i = (i + 1) & mask
		steps++
	}
	ix.probes += uint64(steps)
	if steps > ix.maxProbe {
		ix.maxProbe = steps
	}
	return nilSlot
}

// indexInsert records k (with reduced hash h) as living in arena slot
// slot. The key must not already be present.
func (t *Table[K]) indexInsert(h uint32, slot int32) {
	ix := &t.idx
	if ix.used >= ix.growAt {
		t.indexGrow()
	}
	mask := ix.mask
	i := h & mask
	for ix.slots[i].slot != nilSlot {
		i = (i + 1) & mask
	}
	ix.slots[i] = idxSlot{hash: h, slot: slot}
	ix.used++
}

// indexDelete removes k (with reduced hash h) from the index,
// backward-shifting displaced successors so no tombstone is left
// behind. The key must be present.
func (t *Table[K]) indexDelete(h uint32, k K) {
	ix := &t.idx
	mask := ix.mask
	i := h & mask
	for {
		s := ix.slots[i]
		if s.hash == h && s.slot != nilSlot && t.arena[s.slot].key == k {
			break
		}
		i = (i + 1) & mask
	}
	backwardShift(ix.slots, mask, i)
	ix.used--
}

// backwardShift empties slot i and pulls every displaced successor of
// the probe chain one hole toward its home slot, preserving the
// no-gap-in-probe-path invariant that makes tombstones unnecessary. An
// entry at j may fill the hole at i iff its home slot is no further
// from i than from j in cyclic probe order — i.e. i lies on the
// entry's own probe path.
func backwardShift(slots []idxSlot, mask, i uint32) {
	for {
		slots[i].slot = nilSlot
		j := i
		for {
			j = (j + 1) & mask
			s := slots[j]
			if s.slot == nilSlot {
				return
			}
			if ((j - s.hash) & mask) >= ((j - i) & mask) {
				slots[i] = s
				i = j
				break
			}
		}
	}
}

// indexGrow doubles the slot array and reinserts every entry from its
// cached hash. Only reachable while the table is still filling toward
// a capacity larger than the pre-allocation hint.
func (t *Table[K]) indexGrow() {
	ix := &t.idx
	old := ix.slots
	n := len(old) * 2
	ix.slots = make([]idxSlot, n)
	for i := range ix.slots {
		ix.slots[i].slot = nilSlot
	}
	ix.mask = uint32(n - 1)
	ix.growAt = n / 4 * 3
	ix.grows++
	for _, s := range old {
		if s.slot == nilSlot {
			continue
		}
		i := s.hash & ix.mask
		for ix.slots[i].slot != nilSlot {
			i = (i + 1) & ix.mask
		}
		ix.slots[i] = s
	}
}

// IndexStats reports the index's probe counters and occupancy.
func (t *Table[K]) IndexStats() IndexStats {
	ix := &t.idx
	return IndexStats{
		Lookups:  ix.lookups,
		Probes:   ix.probes,
		MaxProbe: ix.maxProbe,
		Grows:    ix.grows,
		Slots:    len(ix.slots),
		Used:     ix.used,
	}
}

// checkIndexInvariants verifies the open-addressing invariants the
// backward-shift deletion must preserve:
//
//   - occupancy accounting matches the live slot count;
//   - every occupied slot holds an in-range, live arena slot whose
//     key re-hashes to the cached 32-bit hash;
//   - no occupied slot is separated from its home slot by an empty
//     slot (the tombstone-free probe-path invariant — a violation
//     makes keys unreachable);
//   - every live entry is found by lookup at its recorded slot.
//
// O(slots * probe length); used by tests and fuzz targets via the
// export_test shim.
func (t *Table[K]) checkIndexInvariants() error {
	ix := &t.idx
	if got := len(ix.slots); got&(got-1) != 0 || uint32(got-1) != ix.mask {
		return fmt.Errorf("index size %d / mask %#x inconsistent", len(ix.slots), ix.mask)
	}
	occupied := 0
	for j, s := range ix.slots {
		if s.slot == nilSlot {
			continue
		}
		occupied++
		if int(s.slot) >= len(t.arena) || s.slot < 0 {
			return fmt.Errorf("index slot %d points at out-of-range arena slot %d", j, s.slot)
		}
		e := &t.arena[s.slot]
		if e.tier == TierNone {
			return fmt.Errorf("index slot %d points at free arena slot %d", j, s.slot)
		}
		if want := hashOf(&ix.seed, e.key); want != s.hash {
			return fmt.Errorf("index slot %d caches hash %#x for key %v, want %#x", j, s.hash, e.key, want)
		}
		// Walk home → j: every intermediate slot must be occupied, or
		// the entry is unreachable by lookup.
		for i := s.hash & ix.mask; i != uint32(j); i = (i + 1) & ix.mask {
			if ix.slots[i].slot == nilSlot {
				return fmt.Errorf("probe path to index slot %d (key %v) crosses empty slot %d", j, e.key, i)
			}
		}
		if got := t.indexLookup(s.hash, e.key); got != s.slot {
			return fmt.Errorf("lookup(%v) = slot %d, index records %d", e.key, got, s.slot)
		}
	}
	if occupied != ix.used {
		return fmt.Errorf("index used %d, counted %d occupied slots", ix.used, occupied)
	}
	if ix.used > ix.growAt {
		return fmt.Errorf("index occupancy %d exceeds grow watermark %d", ix.used, ix.growAt)
	}
	return nil
}

// oaMap is a small open-addressing key→int32 map with the same probe
// discipline as the table index (linear probing, cached reduced hash,
// backward-shift deletion), for bounded hot-path side indexes whose
// keys are not arena-resident — the analyzer's pair-membership heads.
// Values are arena slot indexes and never nilSlot, so nilSlot doubles
// as the empty-slot marker. Not safe for concurrent use.
type oaMap[K Key] struct {
	seed   hashSeed
	slots  []oaMapSlot[K]
	mask   uint32
	used   int
	growAt int
}

type oaMapSlot[K Key] struct {
	hash uint32
	val  int32 // nilSlot when the slot is empty
	key  K
}

// newOAMap returns a map pre-sized for hint entries.
func newOAMap[K Key](hint int) *oaMap[K] {
	m := &oaMap[K]{seed: newHashSeed()}
	m.grow(nextPow2(hint + hint/3 + 1))
	return m
}

func (m *oaMap[K]) grow(n int) {
	old := m.slots
	m.slots = make([]oaMapSlot[K], n)
	for i := range m.slots {
		m.slots[i].val = nilSlot
	}
	m.mask = uint32(n - 1)
	m.growAt = n / 4 * 3
	for i := range old {
		if old[i].val == nilSlot {
			continue
		}
		j := old[i].hash & m.mask
		for m.slots[j].val != nilSlot {
			j = (j + 1) & m.mask
		}
		m.slots[j] = old[i]
	}
}

// Len returns the number of live entries.
func (m *oaMap[K]) Len() int { return m.used }

// Get returns the value for k and whether it is present.
func (m *oaMap[K]) Get(k K) (int32, bool) {
	h := hashOf(&m.seed, k)
	i := h & m.mask
	for {
		s := &m.slots[i]
		if s.val == nilSlot {
			return nilSlot, false
		}
		if s.hash == h && s.key == k {
			return s.val, true
		}
		i = (i + 1) & m.mask
	}
}

// Set inserts or updates k → v. v must not be nilSlot.
func (m *oaMap[K]) Set(k K, v int32) {
	h := hashOf(&m.seed, k)
	i := h & m.mask
	for {
		s := &m.slots[i]
		if s.val == nilSlot {
			break
		}
		if s.hash == h && s.key == k {
			s.val = v
			return
		}
		i = (i + 1) & m.mask
	}
	if m.used >= m.growAt {
		m.grow(len(m.slots) * 2)
		i = h & m.mask
		for m.slots[i].val != nilSlot {
			i = (i + 1) & m.mask
		}
	}
	m.slots[i] = oaMapSlot[K]{hash: h, val: v, key: k}
	m.used++
}

// Delete removes k, reporting whether it was present. Deletion
// backward-shifts displaced successors exactly like the table index.
func (m *oaMap[K]) Delete(k K) bool {
	h := hashOf(&m.seed, k)
	i := h & m.mask
	for {
		s := &m.slots[i]
		if s.val == nilSlot {
			return false
		}
		if s.hash == h && s.key == k {
			break
		}
		i = (i + 1) & m.mask
	}
	var zero K
	mask := m.mask
	for {
		m.slots[i].val = nilSlot
		m.slots[i].key = zero
		j := i
		for {
			j = (j + 1) & mask
			s := &m.slots[j]
			if s.val == nilSlot {
				m.used--
				return true
			}
			if ((j - s.hash) & mask) >= ((j - i) & mask) {
				m.slots[i] = *s
				i = j
				break
			}
		}
	}
}

// Range calls fn for every live entry until fn returns false. The
// iteration order is the slot order — deterministic for a fixed seed
// and operation sequence, but callers must not depend on it.
func (m *oaMap[K]) Range(fn func(K, int32) bool) {
	for i := range m.slots {
		if m.slots[i].val == nilSlot {
			continue
		}
		if !fn(m.slots[i].key, m.slots[i].val) {
			return
		}
	}
}

// checkInvariants verifies the oaMap's probe-path and accounting
// invariants, mirroring Table.checkIndexInvariants.
func (m *oaMap[K]) checkInvariants() error {
	occupied := 0
	for j := range m.slots {
		s := &m.slots[j]
		if s.val == nilSlot {
			continue
		}
		occupied++
		if want := hashOf(&m.seed, s.key); want != s.hash {
			return fmt.Errorf("oaMap slot %d caches hash %#x for key %v, want %#x", j, s.hash, s.key, want)
		}
		for i := s.hash & m.mask; i != uint32(j); i = (i + 1) & m.mask {
			if m.slots[i].val == nilSlot {
				return fmt.Errorf("oaMap probe path to slot %d (key %v) crosses empty slot %d", j, s.key, i)
			}
		}
		if got, ok := m.Get(s.key); !ok || got != s.val {
			return fmt.Errorf("oaMap Get(%v) = (%d, %v), slot records %d", s.key, got, ok, s.val)
		}
	}
	if occupied != m.used {
		return fmt.Errorf("oaMap used %d, counted %d occupied slots", m.used, occupied)
	}
	return nil
}

// extentIndex is the read side's counterpart of tableIndex: a flat
// open-addressing index from an extent to its position in a captured or
// exported item slice, so rule extraction resolves antecedents without
// building a Go map over every item. Same slot layout and probe
// discipline (8-byte slots caching the reduced hash, linear probing,
// load <= 3/4); build-once, so there is no deletion and no growth, and
// the slot buffer is reused from one build to the next. Keys stay in
// the indexed slice: keyAt(i) names the i-th.
type extentIndex struct {
	seed  hashSeed
	slots []idxSlot
	mask  uint32
}

// build indexes n distinct keys, replacing whatever was indexed before.
func (ix *extentIndex) build(n int, keyAt func(int) blktrace.Extent) {
	size := nextPow2(n + n/3 + 1)
	if cap(ix.slots) < size {
		ix.seed = newHashSeed()
		ix.slots = make([]idxSlot, size)
	}
	ix.slots = ix.slots[:size]
	for i := range ix.slots {
		ix.slots[i].slot = nilSlot
	}
	ix.mask = uint32(size - 1)
	for pos := 0; pos < n; pos++ {
		h := hashOf(&ix.seed, keyAt(pos))
		i := h & ix.mask
		for ix.slots[i].slot != nilSlot {
			i = (i + 1) & ix.mask
		}
		ix.slots[i] = idxSlot{hash: h, slot: int32(pos)}
	}
}

// lookup returns ext's position among the keys last built, or -1.
func (ix *extentIndex) lookup(ext blktrace.Extent, keyAt func(int) blktrace.Extent) int {
	h := hashOf(&ix.seed, ext)
	for i := h & ix.mask; ; i = (i + 1) & ix.mask {
		s := ix.slots[i]
		if s.slot == nilSlot {
			return -1
		}
		if s.hash == h && keyAt(int(s.slot)) == ext {
			return int(s.slot)
		}
	}
}
