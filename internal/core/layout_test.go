package core

import (
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
// LRU links), its pairLinks (16: membership-list links) and one index
// slot (8, at load <= 3/4 so ~10.7 per live entry): ~83 B, about three
// times the paper's figure, which buys O(1) recency, eviction and
// membership updates. A pair in a merged view costs its unionEntry
// (56) plus ~10.7 B of index beside the PairCount (48) each source's
// export already holds; the index copies no source.
func TestLayoutSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"entry[Pair]", unsafe.Sizeof(entry[blktrace.Pair]{}), 56},
		{"entry[Extent]", unsafe.Sizeof(entry[blktrace.Extent]{}), 40},
		{"pairLinks", unsafe.Sizeof(pairLinks{}), 16},
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
