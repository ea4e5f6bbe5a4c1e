package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"daccor/internal/blktrace"
)

// Synopsis persistence: a deployed characterizer can save its state on
// shutdown and restore it on restart, avoiding the cold-start transient
// (the §V.1 experiment quantifies what that transient costs a consumer).
// The format captures both tables' entries in exact recency order, so a
// restored analyzer behaves identically to the original on any
// subsequent stream.
//
//	header:  magic "DSYN" | u16 version | config | stats
//	tables:  item entries, then pair entries, each MRU→LRU with tier

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

type countingWriter struct {
	w *bufio.Writer
	n int64
}

func (cw *countingWriter) write(data any) error {
	if err := binary.Write(cw.w, binary.LittleEndian, data); err != nil {
		return err
	}
	cw.n += int64(binary.Size(data))
	return nil
}

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
	cw := &countingWriter{w: bufio.NewWriter(w)}
	if _, err := cw.w.WriteString(synMagic); err != nil {
		return cw.n, err
	}
	cw.n += int64(len(synMagic))
	hdr := []any{
		uint16(synVersion),
		uint64(cfg.ItemCapacity),
		uint64(cfg.PairCapacity),
		cfg.PromoteThreshold,
		math.Float64bits(cfg.TierRatio),
		stats,
	}
	for _, v := range hdr {
		if err := cw.write(v); err != nil {
			return cw.n, err
		}
	}
	if err := cw.write(uint32(len(items))); err != nil {
		return cw.n, err
	}
	// The record loops hand-roll the little-endian layout instead of
	// going through binary.Write: its reflection path allocates per
	// record, which turns a checkpoint of a full synopsis (tens of
	// thousands of records) into megabytes of garbage and the bulk of
	// the encode's CPU. Layouts must match itemRecord/pairRecord field
	// order exactly — the decoder still reads those structs, and
	// TestDifferentialCheckpointRestoreReplay pins the bytes.
	var rec [pairRecordSize]byte
	for _, e := range items {
		rec[0] = uint8(e.Tier)
		binary.LittleEndian.PutUint32(rec[1:], e.Count)
		binary.LittleEndian.PutUint64(rec[5:], e.Key.Block)
		binary.LittleEndian.PutUint32(rec[13:], e.Key.Len)
		if _, err := cw.w.Write(rec[:itemRecordSize]); err != nil {
			return cw.n, err
		}
		cw.n += itemRecordSize
	}
	if err := cw.write(uint32(len(pairs))); err != nil {
		return cw.n, err
	}
	for _, e := range pairs {
		rec[0] = uint8(e.Tier)
		binary.LittleEndian.PutUint32(rec[1:], e.Count)
		binary.LittleEndian.PutUint64(rec[5:], e.Key.A.Block)
		binary.LittleEndian.PutUint64(rec[13:], e.Key.B.Block)
		binary.LittleEndian.PutUint32(rec[21:], e.Key.A.Len)
		binary.LittleEndian.PutUint32(rec[25:], e.Key.B.Len)
		if _, err := cw.w.Write(rec[:pairRecordSize]); err != nil {
			return cw.n, err
		}
		cw.n += pairRecordSize
	}
	return cw.n, cw.w.Flush()
}

// Wire sizes of the two record layouts (binary.Size of the structs:
// fields packed in declaration order, no padding).
const (
	itemRecordSize = 1 + 4 + 8 + 4
	pairRecordSize = 1 + 4 + 8 + 8 + 4 + 4
)

type itemRecord struct {
	Tier  uint8
	Count uint32
	Block uint64
	Len   uint32
}

type pairRecord struct {
	Tier           uint8
	Count          uint32
	ABlock, BBlock uint64
	ALen, BLen     uint32
}

// countingReader tracks the byte offset of every decode so that a
// failure anywhere in the stream can report exactly where the snapshot
// went bad.
type countingReader struct {
	r   *bufio.Reader
	off int64
}

func (cr *countingReader) read(v any) error {
	if err := binary.Read(cr.r, binary.LittleEndian, v); err != nil {
		return fmt.Errorf("core: snapshot truncated at offset %d: %w", cr.off, err)
	}
	cr.off += int64(binary.Size(v))
	return nil
}

// LoadAnalyzer reconstructs an analyzer from a snapshot produced by
// WriteTo. The restored analyzer is behaviourally identical to the
// saved one: same configuration, same counters, same recency order in
// every tier.
//
// The input is treated as untrusted: every header field is validated
// against sane bounds before it sizes any allocation, record counts
// are checked against the declared capacities, and all failures wrap
// an ErrBadSnapshot* sentinel with the byte offset of the bad field.
func LoadAnalyzer(r io.Reader) (*Analyzer, error) {
	cr := &countingReader{r: bufio.NewReader(r)}
	magic := make([]byte, len(synMagic))
	if _, err := io.ReadFull(cr.r, magic); err != nil {
		return nil, ErrBadSnapshotMagic
	}
	if string(magic) != synMagic {
		return nil, ErrBadSnapshotMagic
	}
	cr.off = int64(len(synMagic))
	var version uint16
	if err := cr.read(&version); err != nil {
		return nil, err
	}
	if version != synVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadSnapshotVersion, version)
	}
	var (
		itemCap, pairCap uint64
		threshold        uint32
		ratioBits        uint64
		stats            Stats
	)
	hdr := []struct {
		v    any
		name string
	}{
		{&itemCap, "item capacity"},
		{&pairCap, "pair capacity"},
		{&threshold, "promote threshold"},
		{&ratioBits, "tier ratio"},
		{&stats, "stats"},
	}
	offs := make(map[string]int64, len(hdr))
	for _, f := range hdr {
		offs[f.name] = cr.off
		if err := cr.read(f.v); err != nil {
			return nil, err
		}
	}
	// Bound the capacities before they flow into NewAnalyzer: the raw
	// u64s are attacker-controlled, and int(1<<40) must never reach an
	// allocation size.
	for _, c := range []struct {
		v    uint64
		name string
	}{{itemCap, "item capacity"}, {pairCap, "pair capacity"}} {
		if c.v == 0 || c.v > MaxSnapshotCapacity {
			return nil, fmt.Errorf("%w: %s %d at offset %d (want 1..%d)",
				ErrBadSnapshotHeader, c.name, c.v, offs[c.name], MaxSnapshotCapacity)
		}
	}
	ratio := math.Float64frombits(ratioBits)
	if math.IsNaN(ratio) || math.IsInf(ratio, 0) || ratio < 0 {
		return nil, fmt.Errorf("%w: tier ratio %v at offset %d",
			ErrBadSnapshotHeader, ratio, offs["tier ratio"])
	}
	a, err := NewAnalyzer(Config{
		ItemCapacity:     int(itemCap),
		PairCapacity:     int(pairCap),
		PromoteThreshold: threshold,
		TierRatio:        ratio,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: config rejected at offset %d: %v",
			ErrBadSnapshotHeader, offs["item capacity"], err)
	}
	a.stats = stats

	var nItems uint32
	countOff := cr.off
	if err := cr.read(&nItems); err != nil {
		return nil, err
	}
	// Capacity C is per tier, so a full table holds 2C entries.
	if uint64(nItems) > 2*itemCap {
		return nil, fmt.Errorf("%w: %d item records at offset %d exceed capacity %d",
			ErrBadSnapshotHeader, nItems, countOff, 2*itemCap)
	}
	for i := uint32(0); i < nItems; i++ {
		recOff := cr.off
		var rec itemRecord
		if err := cr.read(&rec); err != nil {
			return nil, err
		}
		e := blktrace.Extent{Block: rec.Block, Len: rec.Len}
		if e.Len == 0 {
			return nil, fmt.Errorf("%w: item %v at offset %d has zero length",
				ErrBadSnapshotRecord, e, recOff)
		}
		if err := a.items.restore(e, rec.Count, Tier(rec.Tier)); err != nil {
			return nil, fmt.Errorf("%w: item %d at offset %d: %v",
				ErrBadSnapshotRecord, i, recOff, err)
		}
	}
	var nPairs uint32
	countOff = cr.off
	if err := cr.read(&nPairs); err != nil {
		return nil, err
	}
	if uint64(nPairs) > 2*pairCap {
		return nil, fmt.Errorf("%w: %d pair records at offset %d exceed capacity %d",
			ErrBadSnapshotHeader, nPairs, countOff, 2*pairCap)
	}
	for i := uint32(0); i < nPairs; i++ {
		recOff := cr.off
		var rec pairRecord
		if err := cr.read(&rec); err != nil {
			return nil, err
		}
		p := blktrace.Pair{
			A: blktrace.Extent{Block: rec.ABlock, Len: rec.ALen},
			B: blktrace.Extent{Block: rec.BBlock, Len: rec.BLen},
		}
		if p.A.Len == 0 || p.B.Len == 0 {
			return nil, fmt.Errorf("%w: pair %v at offset %d has zero-length extent",
				ErrBadSnapshotRecord, p, recOff)
		}
		if p.B.Less(p.A) {
			return nil, fmt.Errorf("%w: pair %v at offset %d not canonical",
				ErrBadSnapshotRecord, p, recOff)
		}
		if err := a.pairs.restore(p, rec.Count, Tier(rec.Tier)); err != nil {
			return nil, fmt.Errorf("%w: pair %d at offset %d: %v",
				ErrBadSnapshotRecord, i, recOff, err)
		}
		a.registerPair(a.pairs.lookup(p), p)
	}
	return a, nil
}

// restore appends an entry at the LRU end of the given tier, so
// feeding entries in Entries(0) order (MRU→LRU per tier) reproduces
// the exact recency order. It rejects duplicates, invalid tiers, and
// capacity overflows.
func (t *Table[K]) restore(k K, count uint32, tier Tier) error {
	h := hashOf(t.idx.seed, k)
	if t.indexLookup(h, k) != nilSlot {
		return fmt.Errorf("core: snapshot entry %v duplicated", k)
	}
	if count == 0 {
		return fmt.Errorf("core: snapshot entry %v has zero count", k)
	}
	switch tier {
	case Tier1:
		if t.t1.size >= t.cfg.Capacity1 {
			return fmt.Errorf("core: snapshot overflows T1 capacity %d", t.cfg.Capacity1)
		}
	case Tier2:
		if t.t2.size >= t.cfg.Capacity2 {
			return fmt.Errorf("core: snapshot overflows T2 capacity %d", t.cfg.Capacity2)
		}
		if count < t.cfg.PromoteThreshold {
			return fmt.Errorf("core: snapshot T2 entry %v below promote threshold", k)
		}
	default:
		return fmt.Errorf("core: snapshot entry %v has invalid tier %d", k, tier)
	}
	s := t.alloc(k, count, tier)
	if tier == Tier1 {
		t.listPushBack(&t.t1, s)
	} else {
		t.listPushBack(&t.t2, s)
	}
	t.indexInsert(h, s)
	return nil
}
