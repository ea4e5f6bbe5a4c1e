package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"daccor/internal/blktrace"
)

// Delta snapshots are the fleet sync unit: a collector that already
// shipped a full export to its aggregator only needs to ship the
// entries that changed since — upserts carrying absolute new counters,
// plus the keys that fell out of the synopsis. Applying a delta to the
// exact base it was diffed against reproduces the new export
// bit-for-bit, which is what lets an aggregator mirror a collector
// without ever replaying its event stream.
//
// The wire encoding reuses the checkpoint record layouts
// (itemRecord/pairRecord from persist.go) framed with explicit counts:
//
//	delta:   u32 upsertItems | u32 upsertPairs | u32 delItems | u32 delPairs
//	         | item records | pair records | item keys | pair keys
//	records: snapshot body = u32 items | u32 pairs | item records | pair records
//
// Like LoadAnalyzer, the decoders treat input as untrusted: counts are
// bounded before they size anything, allocations grow with the bytes
// actually read (a hostile count cannot force a huge up-front make),
// and duplicate or non-canonical keys are rejected.

// Delta decode errors. ErrDeltaConflict additionally serves Apply: it
// marks a delta that does not fit the base it is being applied to —
// the divergence signal that triggers anti-entropy full sync.
var (
	ErrBadDelta      = errors.New("core: invalid snapshot delta")
	ErrDeltaConflict = errors.New("core: delta does not apply to this base snapshot")
)

// SnapshotDelta is the difference between two exports of one synopsis:
// upserts carry the absolute new state of added or changed entries,
// deletes name the keys present in the base but gone from the target.
type SnapshotDelta struct {
	UpsertItems []ItemCount
	UpsertPairs []PairCount
	DeleteItems []blktrace.Extent
	DeletePairs []blktrace.Pair
}

// Empty reports whether the delta changes nothing.
func (d SnapshotDelta) Empty() bool {
	return len(d.UpsertItems) == 0 && len(d.UpsertPairs) == 0 &&
		len(d.DeleteItems) == 0 && len(d.DeletePairs) == 0
}

// Len is the total record count across all four sections.
func (d SnapshotDelta) Len() int {
	return len(d.UpsertItems) + len(d.UpsertPairs) + len(d.DeleteItems) + len(d.DeletePairs)
}

// DiffSnapshots computes the delta that transforms old into new:
// Apply(DiffSnapshots(old, new), old) == new for any two sorted
// exports. Both inputs are sorted under the same total order, so the
// diff is one merge walk over them and the output is deterministic:
// upserts in new's order, deletes in old's order. Beyond the walk it
// costs and allocates in proportion to the delta, not to the tables.
func DiffSnapshots(old, new Snapshot) SnapshotDelta {
	var d SnapshotDelta
	d.UpsertPairs, d.DeletePairs = diffSorted(old.Pairs, new.Pairs, pairOps)
	d.UpsertItems, d.DeleteItems = diffSorted(old.Items, new.Items, itemOps)
	return d
}

// exportOps is what the code that diffs, patches and merges sorted
// exports needs to know about one table's entries; pairOps and itemOps
// are the two there are.
type exportOps[K comparable, E any] struct {
	mk    func(K, uint32, Tier) E
	key   func(E) K
	value func(E) (uint32, Tier)
	// cmp is the export order: descending counter, ties by key.
	cmp func(a, b E) int
	// owner is the extent whose partition (PartitionOf) holds the key.
	owner func(K) blktrace.Extent
}

var pairOps = exportOps[blktrace.Pair, PairCount]{
	mk:    func(k blktrace.Pair, c uint32, t Tier) PairCount { return PairCount{Pair: k, Count: c, Tier: t} },
	key:   func(pc PairCount) blktrace.Pair { return pc.Pair },
	value: func(pc PairCount) (uint32, Tier) { return pc.Count, pc.Tier },
	cmp:   comparePairCounts,
	owner: func(p blktrace.Pair) blktrace.Extent { return p.A },
}

var itemOps = exportOps[blktrace.Extent, ItemCount]{
	mk:    func(k blktrace.Extent, c uint32, t Tier) ItemCount { return ItemCount{Extent: k, Count: c, Tier: t} },
	key:   func(ic ItemCount) blktrace.Extent { return ic.Extent },
	value: func(ic ItemCount) (uint32, Tier) { return ic.Count, ic.Tier },
	cmp:   compareItemCounts,
	owner: func(e blktrace.Extent) blktrace.Extent { return e },
}

// appendExport appends the table entries with counter >= minSupport to
// out in export form, in table order.
func appendExport[K comparable, E any](out []E, entries []Entry[K], minSupport uint32, ops exportOps[K, E]) []E {
	for _, e := range entries {
		if e.Count >= minSupport {
			out = append(out, ops.mk(e.Key, e.Count, e.Tier))
		}
	}
	return out
}

// diffSorted walks two sorted exports of one table side by side. An
// entry with an identical twin on the other side is unchanged and
// passes by; what is left over on the new side is an upsert as it
// stands (a new key, or a known one whose counter or tier moved), and
// what is left over on the old side is a delete unless its key was just
// upserted — the only lookup the diff needs, over the upserts alone.
func diffSorted[K comparable, E comparable](old, new []E, ops exportOps[K, E]) (upserts []E, deletes []K) {
	var left []K // keys of old's leftovers, in old's order
	i, j := 0, 0
	for i < len(old) && j < len(new) {
		switch c := ops.cmp(old[i], new[j]); {
		case c < 0:
			left = append(left, ops.key(old[i]))
			i++
		case c > 0:
			upserts = append(upserts, new[j])
			j++
		default: // same counter and key; the tier may still differ
			if old[i] != new[j] {
				upserts = append(upserts, new[j])
			}
			i++
			j++
		}
	}
	for ; i < len(old); i++ {
		left = append(left, ops.key(old[i]))
	}
	upserts = append(upserts, new[j:]...)
	if len(left) == 0 {
		return upserts, nil
	}
	upserted := make(map[K]struct{}, len(upserts))
	for _, e := range upserts {
		upserted[ops.key(e)] = struct{}{}
	}
	deletes = left[:0]
	for _, k := range left {
		if _, ok := upserted[k]; !ok {
			deletes = append(deletes, k)
		}
	}
	if len(deletes) == 0 {
		return upserts, nil
	}
	return upserts, deletes
}

// patchSorted is how a sorted export is brought up to date without
// sorting it again: it appends to out the entries of prev whose key
// drop does not name, merged with patch, and returns the extended
// slice. prev and patch are in export order and patch holds no key
// that survives in prev — callers make drop name every key of patch —
// so the result is sorted with each key once. One sequential pass over
// prev; drop is asked exactly once per entry of prev, in order.
func patchSorted[K comparable, E any](out, prev, patch []E, ops exportOps[K, E], drop func(K) bool) []E {
	j := 0
	for _, q := range prev {
		if drop(ops.key(q)) {
			continue
		}
		for j < len(patch) && ops.cmp(patch[j], q) < 0 {
			out = append(out, patch[j])
			j++
		}
		out = append(out, q)
	}
	return append(out, patch[j:]...)
}

// Apply transforms a base snapshot by the delta, returning the sorted
// result: the base without the keys the delta names, merged with the
// upserts (patchSorted) — no index of the base is built and nothing is
// sorted but the upserts, and those only when they do not arrive in
// export order. A delete of a key the base does not hold returns
// ErrDeltaConflict: the delta was diffed against a different base, and
// the caller must fall back to a full sync rather than build a silently
// diverged mirror. A delta naming one key twice is ErrBadDelta, as it
// is to DecodeDelta. The base must be a sorted export and is not
// modified.
func (d SnapshotDelta) Apply(base Snapshot) (Snapshot, error) {
	pairs, err := applySorted(base.Pairs, d.UpsertPairs, d.DeletePairs, pairOps, "pair")
	if err != nil {
		return Snapshot{}, err
	}
	items, err := applySorted(base.Items, d.UpsertItems, d.DeleteItems, itemOps, "item")
	if err != nil {
		return Snapshot{}, err
	}
	return Snapshot{Pairs: pairs, Items: items}, nil
}

// applySorted is Apply for one table.
func applySorted[K comparable, E any](base, upserts []E, deletes []K, ops exportOps[K, E], what string) ([]E, error) {
	if len(upserts)+len(deletes) == 0 {
		return base, nil
	}
	// Every key the delta names, and for a delete whether the base has
	// been seen to hold it.
	const (
		upserted = iota
		deleted
		deletedMet
	)
	named := make(map[K]uint8, len(upserts)+len(deletes))
	for _, e := range upserts {
		named[ops.key(e)] = upserted
	}
	for _, k := range deletes {
		named[k] = deleted
	}
	if len(named) != len(upserts)+len(deletes) {
		return nil, fmt.Errorf("%w: a %s is named twice", ErrBadDelta, what)
	}
	if !slices.IsSortedFunc(upserts, ops.cmp) {
		upserts = slices.Clone(upserts)
		slices.SortFunc(upserts, ops.cmp)
	}
	met := 0
	out := make([]E, 0, max(len(base)+len(upserts)-len(deletes), 0))
	out = patchSorted(out, base, upserts, ops, func(k K) bool {
		how, ok := named[k]
		if how == deleted {
			named[k] = deletedMet
			met++
		}
		return ok
	})
	if met != len(deletes) {
		for _, k := range deletes {
			if named[k] != deletedMet {
				return nil, fmt.Errorf("%w: delete of absent %s %v", ErrDeltaConflict, what, k)
			}
		}
	}
	// Empty sections are nil in every other Snapshot producer; match
	// that so DeepEqual-based convergence checks compare content only.
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// maxDeltaRecords bounds any single record-count field in the delta and
// snapshot-body encodings — the same 2·MaxSnapshotCapacity ceiling
// LoadAnalyzer enforces per table (capacity C is per tier).
const maxDeltaRecords = 2 * MaxSnapshotCapacity

// recordPrealloc caps the up-front slice capacity the decoders reserve
// from an untrusted count; beyond it slices grow with the bytes
// actually read, so a hostile header cannot force a large allocation
// from a tiny input.
const recordPrealloc = 1 << 12

func preallocCap(n uint32) int {
	if n > recordPrealloc {
		return recordPrealloc
	}
	return int(n)
}

// EncodeSnapshotRecords writes a snapshot body — item and pair counts
// followed by the checkpoint record layouts — without the analyzer
// header, for embedding in fleet sync frames. The snapshot should be a
// full export (support 0) so the receiving side can extract rules.
func EncodeSnapshotRecords(w io.Writer, s Snapshot) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(s.Items)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(s.Pairs)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return n, err
	}
	n += 8
	if err := writeRecords(bw, &n, s.Items, s.Pairs); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// writeRecords writes items then pairs in the checkpoint record layouts
// (itemRecord/pairRecord), adding the bytes written to *n: a snapshot
// body's records and a delta's upserts.
func writeRecords(bw *bufio.Writer, n *int64, items []ItemCount, pairs []PairCount) error {
	var rec [pairRecordSize]byte
	for _, ic := range items {
		rec[0] = uint8(ic.Tier)
		binary.LittleEndian.PutUint32(rec[1:], ic.Count)
		binary.LittleEndian.PutUint64(rec[5:], ic.Extent.Block)
		binary.LittleEndian.PutUint32(rec[13:], ic.Extent.Len)
		if _, err := bw.Write(rec[:itemRecordSize]); err != nil {
			return err
		}
		*n += itemRecordSize
	}
	for _, pc := range pairs {
		rec[0] = uint8(pc.Tier)
		binary.LittleEndian.PutUint32(rec[1:], pc.Count)
		binary.LittleEndian.PutUint64(rec[5:], pc.Pair.A.Block)
		binary.LittleEndian.PutUint64(rec[13:], pc.Pair.B.Block)
		binary.LittleEndian.PutUint32(rec[21:], pc.Pair.A.Len)
		binary.LittleEndian.PutUint32(rec[25:], pc.Pair.B.Len)
		if _, err := bw.Write(rec[:pairRecordSize]); err != nil {
			return err
		}
		*n += pairRecordSize
	}
	return nil
}

// DecodeSnapshotRecords reads a snapshot body written by
// EncodeSnapshotRecords, validating every record (bounded counts,
// nonzero extents, canonical pairs, valid tiers, positive counters, no
// duplicate keys) before it lands in the result, and that the records
// arrive in export order: a snapshot body is a sorted export, and what
// holds one afterwards — a mirror that deltas are applied to, a
// support cut by binary search — relies on the order without checking.
func DecodeSnapshotRecords(r io.Reader) (Snapshot, error) {
	br := asByteReader(r)
	nItems, nPairs, err := readCountPair(br, "snapshot body")
	if err != nil {
		return Snapshot{}, err
	}
	var s Snapshot
	seenItems := make(map[blktrace.Extent]struct{}, preallocCap(nItems))
	s.Items = make([]ItemCount, 0, preallocCap(nItems))
	for i := uint32(0); i < nItems; i++ {
		ic, err := readItemRecord(br)
		if err != nil {
			return Snapshot{}, err
		}
		if _, dup := seenItems[ic.Extent]; dup {
			return Snapshot{}, fmt.Errorf("%w: duplicate item %v", ErrBadSnapshotRecord, ic.Extent)
		}
		if i > 0 && compareItemCounts(s.Items[i-1], ic) > 0 {
			return Snapshot{}, fmt.Errorf("%w: item %v out of export order", ErrBadSnapshotRecord, ic.Extent)
		}
		seenItems[ic.Extent] = struct{}{}
		s.Items = append(s.Items, ic)
	}
	seenPairs := make(map[blktrace.Pair]struct{}, preallocCap(nPairs))
	s.Pairs = make([]PairCount, 0, preallocCap(nPairs))
	for i := uint32(0); i < nPairs; i++ {
		pc, err := readPairRecord(br)
		if err != nil {
			return Snapshot{}, err
		}
		if _, dup := seenPairs[pc.Pair]; dup {
			return Snapshot{}, fmt.Errorf("%w: duplicate pair %v", ErrBadSnapshotRecord, pc.Pair)
		}
		if i > 0 && comparePairCounts(s.Pairs[i-1], pc) > 0 {
			return Snapshot{}, fmt.Errorf("%w: pair %v out of export order", ErrBadSnapshotRecord, pc.Pair)
		}
		seenPairs[pc.Pair] = struct{}{}
		s.Pairs = append(s.Pairs, pc)
	}
	// Normalize empty sections to nil (see Apply): a decoded snapshot
	// must DeepEqual the export it was encoded from.
	if len(s.Items) == 0 {
		s.Items = nil
	}
	if len(s.Pairs) == 0 {
		s.Pairs = nil
	}
	return s, nil
}

// EncodeDelta writes the delta wire format: the four section counts,
// then upsert records (checkpoint layouts) and delete keys.
func EncodeDelta(w io.Writer, d SnapshotDelta) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(d.UpsertItems)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(d.UpsertPairs)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(d.DeleteItems)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(d.DeletePairs)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return n, err
	}
	n += 16
	if err := writeRecords(bw, &n, d.UpsertItems, d.UpsertPairs); err != nil {
		return n, err
	}
	var rec [pairRecordSize]byte
	for _, e := range d.DeleteItems {
		binary.LittleEndian.PutUint64(rec[0:], e.Block)
		binary.LittleEndian.PutUint32(rec[8:], e.Len)
		if _, err := bw.Write(rec[:12]); err != nil {
			return n, err
		}
		n += 12
	}
	for _, p := range d.DeletePairs {
		binary.LittleEndian.PutUint64(rec[0:], p.A.Block)
		binary.LittleEndian.PutUint64(rec[8:], p.B.Block)
		binary.LittleEndian.PutUint32(rec[16:], p.A.Len)
		binary.LittleEndian.PutUint32(rec[20:], p.B.Len)
		if _, err := bw.Write(rec[:24]); err != nil {
			return n, err
		}
		n += 24
	}
	return n, bw.Flush()
}

// DecodeDelta reads a delta written by EncodeDelta under the same
// validation discipline as DecodeSnapshotRecords; additionally a key
// may appear at most once across its upsert and delete sections (a key
// both upserted and deleted is a contradiction, not a delta).
func DecodeDelta(r io.Reader) (SnapshotDelta, error) {
	br := asByteReader(r)
	upItems, upPairs, err := readCountPair(br, "delta upserts")
	if err != nil {
		return SnapshotDelta{}, err
	}
	delItems, delPairs, err := readCountPair(br, "delta deletes")
	if err != nil {
		return SnapshotDelta{}, err
	}
	var d SnapshotDelta
	items := make(map[blktrace.Extent]struct{}, preallocCap(upItems+delItems))
	pairs := make(map[blktrace.Pair]struct{}, preallocCap(upPairs+delPairs))
	d.UpsertItems = make([]ItemCount, 0, preallocCap(upItems))
	for i := uint32(0); i < upItems; i++ {
		ic, err := readItemRecord(br)
		if err != nil {
			return SnapshotDelta{}, err
		}
		if _, dup := items[ic.Extent]; dup {
			return SnapshotDelta{}, fmt.Errorf("%w: duplicate item %v", ErrBadDelta, ic.Extent)
		}
		items[ic.Extent] = struct{}{}
		d.UpsertItems = append(d.UpsertItems, ic)
	}
	d.UpsertPairs = make([]PairCount, 0, preallocCap(upPairs))
	for i := uint32(0); i < upPairs; i++ {
		pc, err := readPairRecord(br)
		if err != nil {
			return SnapshotDelta{}, err
		}
		if _, dup := pairs[pc.Pair]; dup {
			return SnapshotDelta{}, fmt.Errorf("%w: duplicate pair %v", ErrBadDelta, pc.Pair)
		}
		pairs[pc.Pair] = struct{}{}
		d.UpsertPairs = append(d.UpsertPairs, pc)
	}
	d.DeleteItems = make([]blktrace.Extent, 0, preallocCap(delItems))
	for i := uint32(0); i < delItems; i++ {
		var buf [12]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return SnapshotDelta{}, fmt.Errorf("%w: truncated item delete: %v", ErrBadDelta, err)
		}
		e := blktrace.Extent{Block: binary.LittleEndian.Uint64(buf[0:]), Len: binary.LittleEndian.Uint32(buf[8:])}
		if e.Len == 0 {
			return SnapshotDelta{}, fmt.Errorf("%w: zero-length item delete", ErrBadDelta)
		}
		if _, dup := items[e]; dup {
			return SnapshotDelta{}, fmt.Errorf("%w: item %v both upserted and deleted", ErrBadDelta, e)
		}
		items[e] = struct{}{}
		d.DeleteItems = append(d.DeleteItems, e)
	}
	d.DeletePairs = make([]blktrace.Pair, 0, preallocCap(delPairs))
	for i := uint32(0); i < delPairs; i++ {
		var buf [24]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return SnapshotDelta{}, fmt.Errorf("%w: truncated pair delete: %v", ErrBadDelta, err)
		}
		p := blktrace.Pair{
			A: blktrace.Extent{Block: binary.LittleEndian.Uint64(buf[0:]), Len: binary.LittleEndian.Uint32(buf[16:])},
			B: blktrace.Extent{Block: binary.LittleEndian.Uint64(buf[8:]), Len: binary.LittleEndian.Uint32(buf[20:])},
		}
		if p.A.Len == 0 || p.B.Len == 0 {
			return SnapshotDelta{}, fmt.Errorf("%w: zero-length extent in pair delete", ErrBadDelta)
		}
		if p.B.Less(p.A) {
			return SnapshotDelta{}, fmt.Errorf("%w: pair delete %v not canonical", ErrBadDelta, p)
		}
		if _, dup := pairs[p]; dup {
			return SnapshotDelta{}, fmt.Errorf("%w: pair %v both upserted and deleted", ErrBadDelta, p)
		}
		pairs[p] = struct{}{}
		d.DeletePairs = append(d.DeletePairs, p)
	}
	return d, nil
}

// asByteReader wraps r for buffered record reads without double
// buffering an existing bufio.Reader.
func asByteReader(r io.Reader) *bufio.Reader {
	if br, ok := r.(*bufio.Reader); ok {
		return br
	}
	return bufio.NewReader(r)
}

// readCountPair reads two u32 counts and bounds both.
func readCountPair(br *bufio.Reader, what string) (uint32, uint32, error) {
	var buf [8]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return 0, 0, fmt.Errorf("%w: truncated %s counts: %v", ErrBadDelta, what, err)
	}
	a := binary.LittleEndian.Uint32(buf[0:])
	b := binary.LittleEndian.Uint32(buf[4:])
	if a > maxDeltaRecords || b > maxDeltaRecords {
		return 0, 0, fmt.Errorf("%w: %s counts %d/%d exceed %d", ErrBadDelta, what, a, b, maxDeltaRecords)
	}
	return a, b, nil
}

func readItemRecord(br *bufio.Reader) (ItemCount, error) {
	var buf [itemRecordSize]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return ItemCount{}, fmt.Errorf("%w: truncated item record: %v", ErrBadSnapshotRecord, err)
	}
	ic := ItemCount{
		Tier:   Tier(buf[0]),
		Count:  binary.LittleEndian.Uint32(buf[1:]),
		Extent: blktrace.Extent{Block: binary.LittleEndian.Uint64(buf[5:]), Len: binary.LittleEndian.Uint32(buf[13:])},
	}
	if ic.Tier != Tier1 && ic.Tier != Tier2 {
		return ItemCount{}, fmt.Errorf("%w: item %v has invalid tier %d", ErrBadSnapshotRecord, ic.Extent, ic.Tier)
	}
	if ic.Count == 0 {
		return ItemCount{}, fmt.Errorf("%w: item %v has zero count", ErrBadSnapshotRecord, ic.Extent)
	}
	if ic.Extent.Len == 0 {
		return ItemCount{}, fmt.Errorf("%w: item record has zero length", ErrBadSnapshotRecord)
	}
	return ic, nil
}

func readPairRecord(br *bufio.Reader) (PairCount, error) {
	var buf [pairRecordSize]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return PairCount{}, fmt.Errorf("%w: truncated pair record: %v", ErrBadSnapshotRecord, err)
	}
	pc := PairCount{
		Tier:  Tier(buf[0]),
		Count: binary.LittleEndian.Uint32(buf[1:]),
		Pair: blktrace.Pair{
			A: blktrace.Extent{Block: binary.LittleEndian.Uint64(buf[5:]), Len: binary.LittleEndian.Uint32(buf[21:])},
			B: blktrace.Extent{Block: binary.LittleEndian.Uint64(buf[13:]), Len: binary.LittleEndian.Uint32(buf[25:])},
		},
	}
	if pc.Tier != Tier1 && pc.Tier != Tier2 {
		return PairCount{}, fmt.Errorf("%w: pair %v has invalid tier %d", ErrBadSnapshotRecord, pc.Pair, pc.Tier)
	}
	if pc.Count == 0 {
		return PairCount{}, fmt.Errorf("%w: pair %v has zero count", ErrBadSnapshotRecord, pc.Pair)
	}
	if pc.Pair.A.Len == 0 || pc.Pair.B.Len == 0 {
		return PairCount{}, fmt.Errorf("%w: pair record has zero-length extent", ErrBadSnapshotRecord)
	}
	if pc.Pair.B.Less(pc.Pair.A) {
		return PairCount{}, fmt.Errorf("%w: pair %v not canonical", ErrBadSnapshotRecord, pc.Pair)
	}
	return pc, nil
}
