package core

import (
	"errors"
	"fmt"
	"io"
	"math"

	"daccor/internal/binio"
	"daccor/internal/blktrace"
)

// Synopsis persistence: a deployed characterizer can save its state on
// shutdown and restore it on restart, avoiding the cold-start transient
// (the §V.1 experiment quantifies what that transient costs a consumer).
// The format captures both tables' entries in exact recency order, so a
// restored analyzer behaves identically to the original on any
// subsequent stream.
//
//	header:  magic "DSYN" | u16 version | u64 item capacity
//	         | u64 pair capacity | u32 promote threshold
//	         | u64 tier ratio (float64 bits) | 8 × u64 stats (Stats.fields)
//	tables:  u32 items | item records | u32 pairs | pair records
//
// Records are the layouts of records.go; each table's run is in
// Entries(0) order, T2 first and MRU→LRU within each tier.

const (
	synMagic   = "DSYN"
	synVersion = 1
)

// MaxSnapshotCapacity bounds the table capacities LoadAnalyzer will
// accept from a snapshot header. Snapshots are read from disk and over
// trust boundaries (checkpoint directories, operator-supplied files),
// so a corrupt or hostile 64-bit capacity field must fail validation
// here — before it is ever used to size an allocation — rather than
// attempt a multi-gigabyte table build. 16Mi entries per table is far
// beyond any configuration the paper's experiments contemplate (§IV
// uses tables of a few thousand entries).
const MaxSnapshotCapacity = 1 << 24

// Persistence errors. Load failures wrap one of these sentinels and
// carry the byte offset where decoding stopped, so a corrupt
// checkpoint can be diagnosed from the error string alone.
var (
	ErrBadSnapshotMagic   = errors.New("core: bad magic, not a synopsis snapshot")
	ErrBadSnapshotVersion = errors.New("core: unsupported snapshot version")
	ErrBadSnapshotHeader  = errors.New("core: invalid snapshot header")
	ErrBadSnapshotRecord  = errors.New("core: invalid snapshot record")
)

// WriteTo serialises the analyzer's full state. It implements
// io.WriterTo. The encoding runs over a fresh capture, so it is the
// same bytes RawSnapshot.WriteTo yields from a capture at this moment
// — and, being a capture, it closes a stamp period like any other
// (see CaptureSnapshot): call it on the goroutine that owns the
// analyzer, not beside Process.
func (a *Analyzer) WriteTo(w io.Writer) (int64, error) {
	var r RawSnapshot
	a.CaptureSnapshot(&r)
	return r.WriteTo(w)
}

// encodeSnapshot writes the synopsis snapshot format from captured
// state: header (config + stats), then both tables' entries in
// Entries(0) order (T2 first, MRU→LRU within each tier).
func encodeSnapshot(w io.Writer, cfg Config, stats Stats,
	items []Entry[blktrace.Extent], pairs []Entry[blktrace.Pair]) (int64, error) {
	bw := binio.NewWriter(w)
	bw.Magic(synMagic)
	bw.U16(synVersion)
	bw.U64(uint64(cfg.ItemCapacity))
	bw.U64(uint64(cfg.PairCapacity))
	bw.U32(cfg.PromoteThreshold)
	bw.U64(math.Float64bits(cfg.TierRatio))
	for _, f := range stats.fields() {
		bw.U64(*f)
	}
	bw.U32(uint32(len(items)))
	for _, e := range items {
		writeItem(bw, e.Key, e.Count, e.Tier)
	}
	bw.U32(uint32(len(pairs)))
	for _, e := range pairs {
		writePair(bw, e.Key, e.Count, e.Tier)
	}
	return bw.Flush()
}

// LoadAnalyzer reconstructs an analyzer from a snapshot produced by
// WriteTo. The restored analyzer is behaviourally identical to the
// saved one: same configuration, same counters, same recency order in
// every tier.
//
// The input is treated as untrusted: every header field is validated
// against sane bounds before it sizes any allocation, record counts
// are checked against the declared capacities, records are read field
// by field through the checks of records.go (no reflection), and all
// failures wrap an ErrBadSnapshot* sentinel with the byte offset of
// the bad field.
func LoadAnalyzer(rd io.Reader) (*Analyzer, error) {
	r := binio.NewReader(rd, ErrBadSnapshotMagic)
	r.Magic(synMagic)
	r.SetSentinel(ErrBadSnapshotVersion)
	if v := r.U16("version"); v != synVersion {
		r.Fail("%d", v)
	}
	r.SetSentinel(ErrBadSnapshotHeader)
	// Bound the capacities before they flow into NewAnalyzer: the raw
	// u64s are attacker-controlled, and int(1<<40) must never reach an
	// allocation size.
	itemCap := readCapacity(r, "item capacity")
	pairCap := readCapacity(r, "pair capacity")
	threshold := r.U32("promote threshold")
	ratio := math.Float64frombits(r.U64("tier ratio"))
	if math.IsNaN(ratio) || math.IsInf(ratio, 0) || ratio < 0 {
		r.Fail("tier ratio %v", ratio)
	}
	var stats Stats
	for _, f := range stats.fields() {
		*f = r.U64("stats")
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	a, err := NewAnalyzer(Config{
		ItemCapacity:     itemCap,
		PairCapacity:     pairCap,
		PromoteThreshold: threshold,
		TierRatio:        ratio,
	})
	if err != nil {
		r.Fail("config rejected: %v", err)
		return nil, r.Err()
	}
	a.stats = stats

	// Capacity C is per tier, so a full table holds 2C entries.
	nItems := r.Count("item records", 2*itemCap)
	r.SetSentinel(ErrBadSnapshotRecord)
	for i := 0; i < nItems; i++ {
		ic := readItem(r)
		if r.Err() != nil {
			break
		}
		s, err := a.items.restore(ic.Extent, ic.Count, ic.Tier)
		if err != nil {
			r.Fail("item %d: %v", i, err)
			break
		}
		a.admitItem(s, ic.Extent)
	}
	r.SetSentinel(ErrBadSnapshotHeader)
	nPairs := r.Count("pair records", 2*pairCap)
	r.SetSentinel(ErrBadSnapshotRecord)
	for i := 0; i < nPairs; i++ {
		pc := readPair(r)
		if r.Err() != nil {
			break
		}
		s, err := a.pairs.restore(pc.Pair, pc.Count, pc.Tier)
		if err != nil {
			r.Fail("pair %d: %v", i, err)
			break
		}
		a.registerPair(s, pc.Pair, nilSlot, nilSlot)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// readCapacity reads a table capacity and bounds it to
// 1..MaxSnapshotCapacity.
func readCapacity(r *binio.Reader, what string) int {
	c := r.U64(what)
	if c == 0 || c > MaxSnapshotCapacity {
		r.Fail("%s %d (want 1..%d)", what, c, MaxSnapshotCapacity)
		return 0
	}
	return int(c)
}

// restore appends an entry at the LRU end of the given tier, so
// feeding entries in Entries(0) order (MRU→LRU per tier) reproduces
// the exact recency order, and returns the entry's arena slot. The
// entry is a valid record (records.go checks tier and count); restore
// rejects what only the table can tell: duplicates, T2 entries below
// the promote threshold, and capacity overflows.
func (t *Table[K]) restore(k K, count uint32, tier Tier) (int32, error) {
	h := hashOf(&t.idx.seed, k)
	if t.indexLookup(h, k) != nilSlot {
		return nilSlot, fmt.Errorf("core: snapshot entry %v duplicated", k)
	}
	if tier == Tier2 {
		if t.t2.size >= t.cfg.Capacity2 {
			return nilSlot, fmt.Errorf("core: snapshot overflows T2 capacity %d", t.cfg.Capacity2)
		}
		if count < t.cfg.PromoteThreshold {
			return nilSlot, fmt.Errorf("core: snapshot T2 entry %v below promote threshold", k)
		}
	} else if t.t1.size >= t.cfg.Capacity1 {
		return nilSlot, fmt.Errorf("core: snapshot overflows T1 capacity %d", t.cfg.Capacity1)
	}
	s := t.alloc(k, count, tier)
	if tier == Tier1 {
		t.listPushBack(&t.t1, s)
	} else {
		t.listPushBack(&t.t2, s)
	}
	t.indexInsert(h, s)
	return s, nil
}
