package core

import (
	"daccor/internal/binio"
	"daccor/internal/blktrace"
)

// The record and key layouts every synopsis format is built from — the
// checkpoint's tables, the snapshot body, the delta's upserts and
// deletes — and the one place a record read back is checked:
//
//	item record: u8 tier | u32 count | item key
//	pair record: u8 tier | u32 count | pair key
//	item key:    u64 block | u32 len
//	pair key:    u64 A.block | u64 B.block | u32 A.len | u32 B.len
//
// A record the reader accepts has extents of nonzero length, a
// canonical pair (A before B), tier 1 or 2 and a count above 0; any
// other fails the reader at the offending field.

func writeItem(w *binio.Writer, k blktrace.Extent, count uint32, tier Tier) {
	w.U8(uint8(tier))
	w.U32(count)
	writeItemKey(w, k)
}

func writePair(w *binio.Writer, k blktrace.Pair, count uint32, tier Tier) {
	w.U8(uint8(tier))
	w.U32(count)
	writePairKey(w, k)
}

func writeItemKey(w *binio.Writer, e blktrace.Extent) {
	w.U64(e.Block)
	w.U32(e.Len)
}

func writePairKey(w *binio.Writer, p blktrace.Pair) {
	w.U64(p.A.Block)
	w.U64(p.B.Block)
	w.U32(p.A.Len)
	w.U32(p.B.Len)
}

func readItem(r *binio.Reader) ItemCount {
	tier, count := readValue(r)
	return ItemCount{Extent: readItemKey(r), Count: count, Tier: tier}
}

func readPair(r *binio.Reader) PairCount {
	tier, count := readValue(r)
	return PairCount{Pair: readPairKey(r), Count: count, Tier: tier}
}

// readValue reads the tier and count a record leads with.
func readValue(r *binio.Reader) (Tier, uint32) {
	tier := Tier(r.U8("tier"))
	if tier != Tier1 && tier != Tier2 {
		r.Fail("invalid tier %d", tier)
	}
	count := r.U32("count")
	if count == 0 {
		r.Fail("zero count")
	}
	return tier, count
}

func readItemKey(r *binio.Reader) blktrace.Extent {
	e := blktrace.Extent{Block: r.U64("block")}
	if e.Len = r.U32("length"); e.Len == 0 {
		r.Fail("item of zero length")
	}
	return e
}

func readPairKey(r *binio.Reader) blktrace.Pair {
	var p blktrace.Pair
	p.A.Block = r.U64("block A")
	p.B.Block = r.U64("block B")
	p.A.Len = r.U32("length A")
	p.B.Len = r.U32("length B")
	switch {
	case p.A.Len == 0 || p.B.Len == 0:
		r.Fail("pair %v has a zero-length extent", p)
	case p.B.Less(p.A):
		r.Fail("pair %v not canonical", p)
	}
	return p
}

// fields lists the counters in the order the checkpoint header holds
// them.
func (s *Stats) fields() [8]*uint64 {
	return [8]*uint64{
		&s.Transactions, &s.Extents, &s.PairTouches, &s.ItemEvictions,
		&s.PairEvictions, &s.ItemPromotions, &s.PairPromotions, &s.PairDemotions,
	}
}
