package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"daccor/internal/blktrace"
)

// Keys of the synopsis' own types for the differentials. Each maps the
// uint64 a test draws one-to-one onto an Extent or a Pair with the
// structure block traces have (aligned blocks, a high word, lengths,
// pairs that share an extent), so one operation stream runs through
// every instantiation of hashOf.
func uint64Key(k uint64) uint64 { return k }

func extentKey(k uint64) blktrace.Extent {
	return blktrace.Extent{Block: (k&3)<<40 | k<<3, Len: uint32(k&7) + 1}
}

func pairKey(k uint64) blktrace.Pair {
	a := blktrace.Extent{Block: k >> 2 << 3, Len: 8}
	return blktrace.Pair{A: a, B: blktrace.Extent{Block: a.Block + 8*(k&3+1), Len: uint32(k&3) + 1}}
}

// refModel is a deliberately naive reference implementation of the
// two-tier table semantics — plain maps and slices, MRU at index 0 —
// against which the arena-backed Table is differentially tested. It
// mirrors the documented behaviour of Touch/Demote/Remove, including
// the eviction callback sequence, with none of the arena machinery.
type refModel struct {
	cfg    TableConfig
	t1, t2 []uint64
	count  map[uint64]uint32
	tier   map[uint64]Tier
	evicts []refEvict
}

type refEvict struct {
	key   uint64
	count uint32
}

func newRefModel(cfg TableConfig) *refModel {
	return &refModel{
		cfg:   cfg,
		count: make(map[uint64]uint32),
		tier:  make(map[uint64]Tier),
	}
}

func refIndexOf(l []uint64, k uint64) int {
	for i, v := range l {
		if v == k {
			return i
		}
	}
	return -1
}

func refDelete(l []uint64, k uint64) []uint64 {
	i := refIndexOf(l, k)
	return append(l[:i], l[i+1:]...)
}

func (r *refModel) evictBack(l *[]uint64) {
	k := (*l)[len(*l)-1]
	*l = (*l)[:len(*l)-1]
	r.evicts = append(r.evicts, refEvict{key: k, count: r.count[k]})
	delete(r.count, k)
	delete(r.tier, k)
}

func (r *refModel) touch(k uint64) TouchResult {
	switch r.tier[k] {
	case Tier1:
		r.count[k]++
		if r.count[k] >= r.cfg.PromoteThreshold {
			r.t1 = refDelete(r.t1, k)
			if len(r.t2) >= r.cfg.Capacity2 {
				r.evictBack(&r.t2)
			}
			r.tier[k] = Tier2
			r.t2 = append([]uint64{k}, r.t2...)
			return Promoted
		}
		r.t1 = append([]uint64{k}, refDelete(r.t1, k)...)
		return HitT1
	case Tier2:
		r.count[k]++
		r.t2 = append([]uint64{k}, refDelete(r.t2, k)...)
		return HitT2
	}
	if len(r.t1) >= r.cfg.Capacity1 {
		r.evictBack(&r.t1)
	}
	r.t1 = append([]uint64{k}, r.t1...)
	r.count[k] = 1
	r.tier[k] = Tier1
	return Inserted
}

func (r *refModel) demote(k uint64) bool {
	switch r.tier[k] {
	case Tier1:
		r.t1 = append(refDelete(r.t1, k), k)
	case Tier2:
		r.t2 = append(refDelete(r.t2, k), k)
	default:
		return false
	}
	return true
}

func (r *refModel) remove(k uint64) bool {
	switch r.tier[k] {
	case Tier1:
		r.t1 = refDelete(r.t1, k)
	case Tier2:
		r.t2 = refDelete(r.t2, k)
	default:
		return false
	}
	delete(r.count, k)
	delete(r.tier, k)
	return true
}

// entries mirrors Table.Entries(0): T2 first, MRU→LRU per tier.
func (r *refModel) entries() []Entry[uint64] {
	out := make([]Entry[uint64], 0, len(r.t1)+len(r.t2))
	for _, k := range r.t2 {
		out = append(out, Entry[uint64]{Key: k, Count: r.count[k], Tier: Tier2})
	}
	for _, k := range r.t1 {
		out = append(out, Entry[uint64]{Key: k, Count: r.count[k], Tier: Tier1})
	}
	return out
}

// TestTableDifferential drives ~100k randomized mixed operations
// through the arena-backed table and the naive reference model in
// lockstep, asserting identical results per operation and identical
// eviction sequences — the arena/free-list machinery must be purely a
// memory-layout change. Each seed's stream runs with uint64, Extent and
// Pair keys.
func TestTableDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Run("uint64", func(t *testing.T) { tableDifferential(t, seed, uint64Key) })
			t.Run("Extent", func(t *testing.T) { tableDifferential(t, seed, extentKey) })
			t.Run("Pair", func(t *testing.T) { tableDifferential(t, seed, pairKey) })
		})
	}
}

// tableDifferential runs one seed's operation stream through a
// Table[K] and the reference model, key(k) standing in the table for
// the model's k.
func tableDifferential[K Key](t *testing.T, seed int64, key func(uint64) K) {
	const opsPerSeed = 25_000
	type evict struct {
		key   K
		count uint32
	}
	rng := rand.New(rand.NewSource(seed))
	cfg := TableConfig{
		Capacity1:        1 + rng.Intn(16),
		Capacity2:        1 + rng.Intn(16),
		PromoteThreshold: uint32(2 + rng.Intn(3)),
	}
	var evicts []evict
	tbl, err := NewTable[K](cfg, func(k K, c uint32) {
		evicts = append(evicts, evict{key: k, count: c})
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefModel(cfg)
	keyspace := uint64(8 + rng.Intn(56))
	for op := 0; op < opsPerSeed; op++ {
		k := rng.Uint64() % keyspace
		switch rng.Intn(10) {
		case 0: // demote
			if got, want := tbl.Demote(key(k)), ref.demote(k); got != want {
				t.Fatalf("op %d: Demote(%d) = %v, ref %v", op, k, got, want)
			}
		case 1: // remove
			if got, want := tbl.Remove(key(k)), ref.remove(k); got != want {
				t.Fatalf("op %d: Remove(%d) = %v, ref %v", op, k, got, want)
			}
		default: // touch (miss/hit/promote mix)
			if got, want := tbl.Touch(key(k)), ref.touch(k); got != want {
				t.Fatalf("op %d: Touch(%d) = %v, ref %v", op, k, got, want)
			}
		}
		if len(evicts) != len(ref.evicts) {
			t.Fatalf("op %d: %d evictions, ref %d", op, len(evicts), len(ref.evicts))
		}
		if len(evicts) > 0 {
			i := len(evicts) - 1
			if want := (evict{key(ref.evicts[i].key), ref.evicts[i].count}); evicts[i] != want {
				t.Fatalf("op %d: eviction %d = %+v, ref %+v", op, i, evicts[i], ref.evicts[i])
			}
		}
		// Every op routes its key through the open-addressing
		// index (touch looks up, miss-evict deletes, insert
		// re-probes); presence must agree with the reference
		// after each one. The full structural sweep — including
		// checkIndexInvariants' probe-path and hash checks —
		// runs periodically, it is O(slots · probe length).
		_, inRef := ref.tier[k]
		if got := tbl.lookup(key(k)) != nilSlot; got != inRef {
			t.Fatalf("op %d: index presence of %d = %v, ref %v", op, k, got, inRef)
		}
		if op%4096 == 0 {
			if err := tbl.checkInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := tbl.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	got, want := tbl.Entries(0), ref.entries()
	if len(got) != len(want) {
		t.Fatalf("final entries: %d, ref %d", len(got), len(want))
	}
	for i := range got {
		if w := want[i]; got[i] != (Entry[K]{Key: key(w.Key), Count: w.Count, Tier: w.Tier}) {
			t.Fatalf("final entry %d = %+v, ref %+v", i, got[i], w)
		}
	}
	if uint64(len(evicts)) != tbl.Evictions() {
		t.Fatalf("eviction counter %d, callback saw %d", tbl.Evictions(), len(evicts))
	}
}

// TestOAMapDifferential drives ~100k randomized set/delete/get
// operations through the open-addressing side map and a builtin map in
// lockstep. It sweeps keyspace sizes so the map runs at every load
// factor — from half-empty through repeated grow/rehash cycles — while
// the periodic invariant sweep proves backward-shift deletion never
// leaves a gap on a live probe path. Each seed's stream runs with
// uint64, Extent and Pair keys.
func TestOAMapDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Run("uint64", func(t *testing.T) { oaMapDifferential(t, seed, uint64Key) })
			t.Run("Extent", func(t *testing.T) { oaMapDifferential(t, seed, extentKey) })
			t.Run("Pair", func(t *testing.T) { oaMapDifferential(t, seed, pairKey) })
		})
	}
}

// oaMapDifferential runs one seed's operation stream through an
// oaMap[K] and a builtin map, both keyed by key(k).
func oaMapDifferential[K Key](t *testing.T, seed int64, key func(uint64) K) {
	const opsPerSeed = 25_000
	rng := rand.New(rand.NewSource(seed))
	m := newOAMap[K](rng.Intn(64))
	shadow := map[K]int32{}
	keyspace := uint64(16 + rng.Intn(240))
	for op := 0; op < opsPerSeed; op++ {
		k := key(rng.Uint64() % keyspace)
		switch rng.Intn(10) {
		case 0, 1, 2: // delete
			_, want := shadow[k]
			if got := m.Delete(k); got != want {
				t.Fatalf("op %d: Delete(%v) = %v, shadow %v", op, k, got, want)
			}
			delete(shadow, k)
		case 3: // get
			got, ok := m.Get(k)
			want, wok := shadow[k]
			if ok != wok || (ok && got != want) {
				t.Fatalf("op %d: Get(%v) = (%d,%v), shadow (%d,%v)", op, k, got, ok, want, wok)
			}
		default: // set
			v := int32(rng.Intn(1 << 20))
			m.Set(k, v)
			shadow[k] = v
		}
		if m.Len() != len(shadow) {
			t.Fatalf("op %d: Len %d, shadow %d", op, m.Len(), len(shadow))
		}
		if op%1024 == 0 {
			if err := m.checkInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := m.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// Range must visit exactly the shadow's entries.
	got := map[K]int32{}
	m.Range(func(k K, v int32) bool {
		if _, dup := got[k]; dup {
			t.Fatalf("Range visited %v twice", k)
		}
		got[k] = v
		return true
	})
	if !reflect.DeepEqual(got, shadow) {
		t.Fatalf("Range saw %d entries, shadow has %d", len(got), len(shadow))
	}
}
