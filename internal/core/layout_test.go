package core

import (
	"runtime"
	"testing"
	"unsafe"

	"daccor/internal/blktrace"
)

// TestLayoutSizes pins the sizes of the structures every live entry
// pays for, so that growing one is a reviewed change rather than a
// side effect of adding a field.
//
// The paper accounts a correlation-table entry at PairEntryBytes = 28 B
// (two extents and a 32-bit counter). Here a live pair costs its arena
// entry (56: the 32 B key padded out, counter, capture stamp, tier and
// LRU links), its two memberLinks (16: one per member extent's
// membership list) and one index slot (8, at load <= 3/4 so ~10.7 per
// live entry): ~83 B, about three times the paper's figure, which buys
// O(1) recency, eviction and membership updates. An item costs its
// arena entry (40), its membership-list head in Analyzer.itemHeads (4)
// and ~10.7 B of index: ~55 B. An extent evicted while pairs containing
// it live on also holds one oaMapSlot[Extent] (24, ~32 at load <= 3/4)
// in the analyzer's orphan map until it is admitted again or its last
// pair goes. (Before the heads were kept by item slot, an extent → head
// map pre-sized to 4 slots of 24 B per pair slot added 96 B per pair
// slot at the default C, which the ~83 B then quoted left out.) A pair
// in a merged view costs its unionEntry (56) plus ~10.7 B of index
// beside the PairCount (48) each source's export already holds; the
// index copies no source.
func TestLayoutSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"entry[Pair]", unsafe.Sizeof(entry[blktrace.Pair]{}), 56},
		{"entry[Extent]", unsafe.Sizeof(entry[blktrace.Extent]{}), 40},
		{"memberLink", unsafe.Sizeof(memberLink{}), 8},
		{"oaMapSlot[Extent]", unsafe.Sizeof(oaMapSlot[blktrace.Extent]{}), 24},
		{"idxSlot", unsafe.Sizeof(idxSlot{}), 8},
		{"PairCount", unsafe.Sizeof(PairCount{}), 48},
		{"ItemCount", unsafe.Sizeof(ItemCount{}), 32},
		{"unionEntry[Pair]", unsafe.Sizeof(unionEntry[blktrace.Pair]{}), 56},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestAnalyzerFootprint bounds what an empty analyzer at the engine's
// default C = 32 Ki retains: its two entry arenas and key indexes
// (8 MiB) and the item slots' membership-list heads (256 KiB). The
// extent → head map the heads replaced was another 6 MiB.
func TestAnalyzerFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	a, err := NewAnalyzer(Config{ItemCapacity: 32 << 10, PairCapacity: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	const bound = 8.3 * (1 << 20)
	if got := float64(after.HeapAlloc) - float64(before.HeapAlloc); got > bound {
		t.Errorf("NewAnalyzer(C = 32 Ki) retains %.0f B (%.2f MiB), want at most %.1f MiB",
			got, got/(1<<20), bound/(1<<20))
	}
	runtime.KeepAlive(a)
}
