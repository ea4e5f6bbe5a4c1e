package core

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"daccor/internal/binio"
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
// The wire encoding frames the record and key layouts of records.go
// with explicit counts:
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

func preallocCap(n int) int { return min(n, recordPrealloc) }

// EncodeSnapshotRecords writes a snapshot body (WriteSnapshotRecords)
// to w.
func EncodeSnapshotRecords(w io.Writer, s Snapshot) (int64, error) {
	bw := binio.NewWriter(w)
	WriteSnapshotRecords(bw, s)
	return bw.Flush()
}

// WriteSnapshotRecords writes a snapshot body — item and pair counts
// followed by the records — without the analyzer header, for embedding
// in fleet sync frames and the aggregator state. The snapshot should be
// a full export (support 0) so the receiving side can extract rules.
func WriteSnapshotRecords(w *binio.Writer, s Snapshot) {
	w.U32(uint32(len(s.Items)))
	w.U32(uint32(len(s.Pairs)))
	for _, ic := range s.Items {
		writeItem(w, ic.Extent, ic.Count, ic.Tier)
	}
	for _, pc := range s.Pairs {
		writePair(w, pc.Pair, pc.Count, pc.Tier)
	}
}

// DecodeSnapshotRecords reads a snapshot body (ReadSnapshotRecords)
// from r; failures wrap ErrBadSnapshotRecord.
func DecodeSnapshotRecords(r io.Reader) (Snapshot, error) {
	br := binio.NewReader(r, ErrBadSnapshotRecord)
	s := ReadSnapshotRecords(br)
	return s, br.Err()
}

// ReadSnapshotRecords reads a snapshot body written by
// WriteSnapshotRecords, validating every record (bounded counts,
// nonzero extents, canonical pairs, valid tiers, positive counters, no
// duplicate keys) before it lands in the result, and that the records
// arrive in export order: a snapshot body is a sorted export, and what
// holds one afterwards — a mirror that deltas are applied to, a
// support cut by binary search — relies on the order without checking.
// Failures are kept in r, and the snapshot returned with one is empty.
func ReadSnapshotRecords(r *binio.Reader) Snapshot {
	nItems := r.Count("item count", maxDeltaRecords)
	nPairs := r.Count("pair count", maxDeltaRecords)
	items := make(map[blktrace.Extent]struct{}, preallocCap(nItems))
	pairs := make(map[blktrace.Pair]struct{}, preallocCap(nPairs))
	s := Snapshot{
		Items: readSection(r, nItems, items, readItem, itemOps.key, itemOps.cmp),
		Pairs: readSection(r, nPairs, pairs, readPair, pairOps.key, pairOps.cmp),
	}
	if r.Err() != nil {
		return Snapshot{}
	}
	return s
}

// EncodeDelta writes a delta (WriteDelta) to w.
func EncodeDelta(w io.Writer, d SnapshotDelta) (int64, error) {
	bw := binio.NewWriter(w)
	WriteDelta(bw, d)
	return bw.Flush()
}

// WriteDelta writes the delta wire format: the four section counts,
// then upsert records and delete keys.
func WriteDelta(w *binio.Writer, d SnapshotDelta) {
	w.U32(uint32(len(d.UpsertItems)))
	w.U32(uint32(len(d.UpsertPairs)))
	w.U32(uint32(len(d.DeleteItems)))
	w.U32(uint32(len(d.DeletePairs)))
	for _, ic := range d.UpsertItems {
		writeItem(w, ic.Extent, ic.Count, ic.Tier)
	}
	for _, pc := range d.UpsertPairs {
		writePair(w, pc.Pair, pc.Count, pc.Tier)
	}
	for _, e := range d.DeleteItems {
		writeItemKey(w, e)
	}
	for _, p := range d.DeletePairs {
		writePairKey(w, p)
	}
}

// DecodeDelta reads a delta (ReadDelta) from r; failures wrap
// ErrBadDelta.
func DecodeDelta(r io.Reader) (SnapshotDelta, error) {
	br := binio.NewReader(r, ErrBadDelta)
	d := ReadDelta(br)
	return d, br.Err()
}

// ReadDelta reads a delta written by WriteDelta under the same
// validation discipline as ReadSnapshotRecords, except for the order;
// additionally a key may appear at most once across its upsert and
// delete sections (a key both upserted and deleted is a contradiction,
// not a delta). Empty sections are nil. Failures are kept in r, and the
// delta returned with one is empty.
func ReadDelta(r *binio.Reader) SnapshotDelta {
	upItems := r.Count("upserted item count", maxDeltaRecords)
	upPairs := r.Count("upserted pair count", maxDeltaRecords)
	delItems := r.Count("deleted item count", maxDeltaRecords)
	delPairs := r.Count("deleted pair count", maxDeltaRecords)
	items := make(map[blktrace.Extent]struct{}, preallocCap(upItems+delItems))
	pairs := make(map[blktrace.Pair]struct{}, preallocCap(upPairs+delPairs))
	d := SnapshotDelta{
		UpsertItems: readSection(r, upItems, items, readItem, itemOps.key, nil),
		UpsertPairs: readSection(r, upPairs, pairs, readPair, pairOps.key, nil),
		DeleteItems: readSection(r, delItems, items, readItemKey, identity[blktrace.Extent], nil),
		DeletePairs: readSection(r, delPairs, pairs, readPairKey, identity[blktrace.Pair], nil),
	}
	if r.Err() != nil {
		return SnapshotDelta{}
	}
	return d
}

// readSection reads a section of n records with read. It fails on a
// key already in seen, which it adds every key to, and, given order, on
// a record that sorts before the one ahead of it. It returns nil for
// n = 0.
func readSection[K comparable, E any](r *binio.Reader, n int, seen map[K]struct{},
	read func(*binio.Reader) E, key func(E) K, order func(a, b E) int) []E {
	var out []E
	if n > 0 {
		out = make([]E, 0, preallocCap(n))
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		e := read(r)
		k := key(e)
		if _, dup := seen[k]; dup {
			r.Fail("%v named twice", k)
		}
		if order != nil && i > 0 && order(out[i-1], e) > 0 {
			r.Fail("%v out of export order", k)
		}
		seen[k] = struct{}{}
		out = append(out, e)
	}
	return out
}

func identity[K any](k K) K { return k }
