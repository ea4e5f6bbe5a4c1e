package core

import (
	"io"

	"daccor/internal/blktrace"
)

// RawSnapshot is an O(live entries) copy of an analyzer's state, cheap
// enough to take while the owner is holding up ingest and complete
// enough to derive every read-side product — sorted Snapshot exports,
// association rules, the binary persistence format — after the owner
// has moved on.
//
// The engine's worker-confined shards motivate the split: a query or
// checkpoint used to sort and encode the synopsis on the worker
// goroutine, stalling ingest for the whole serialization. Capture is a
// pair of slice copies in table recency order (no sorting, no
// encoding, no allocation once the buffers have grown to table size);
// everything expensive happens on the asking goroutine against the
// immutable copy.
//
// A RawSnapshot is reusable: CaptureSnapshot overwrites in place,
// retaining the buffers. It is not safe for concurrent use, and its
// derived products are only as fresh as the last capture.
type RawSnapshot struct {
	cfg   Config
	stats Stats
	// items and pairs hold both tables' entries in Entries(0) order
	// (T2 first, MRU→LRU within each tier) — the order the persistence
	// format requires, which is why WriteTo needs no re-sorting.
	items []Entry[blktrace.Extent]
	pairs []Entry[blktrace.Pair]
	// itemIdx resolves rule antecedents to positions in items. It is
	// built by the first rules read of a capture (indexItems) and
	// invalidated by the next CaptureSnapshot, which keeps its buffer.
	itemIdx   extentIndex
	itemIdxOK bool
}

// CaptureSnapshot copies the analyzer's full state into r, reusing r's
// buffers. It costs O(live entries) with no sorting or encoding and,
// once r's buffers have grown to the table sizes, no allocation — this
// is the only part of a snapshot/checkpoint/rules read that must run
// on the analyzer's owning goroutine.
func (a *Analyzer) CaptureSnapshot(r *RawSnapshot) {
	r.cfg = a.cfg
	r.stats = a.stats
	r.items = a.items.appendEntries(r.items[:0])
	r.pairs = a.pairs.appendEntries(r.pairs[:0])
	r.itemIdxOK = false
}

// appendEntries appends every entry (T2 first, each tier MRU→LRU — the
// Entries(0) order) to buf and returns the extended slice. Unlike
// Entries it allocates only when buf lacks capacity, so a reused
// buffer makes repeated captures allocation-free.
func (t *Table[K]) appendEntries(buf []Entry[K]) []Entry[K] {
	for _, l := range [...]*lruList{&t.t2, &t.t1} {
		for s := l.front; s != nilSlot; s = t.arena[s].next {
			e := &t.arena[s]
			buf = append(buf, Entry[K]{Key: e.key, Count: e.count, Tier: e.tier})
		}
	}
	return buf
}

// Config returns the captured analyzer configuration.
func (r *RawSnapshot) Config() Config { return r.cfg }

// Stats returns the captured processing counters.
func (r *RawSnapshot) Stats() Stats { return r.stats }

// Len returns the captured live entry counts (items, pairs).
func (r *RawSnapshot) Len() (items, pairs int) { return len(r.items), len(r.pairs) }

// Snapshot derives the sorted public export from the capture, exactly
// as Analyzer.Snapshot would have at capture time: entries with
// counter >= minSupport, descending counter, ties by key.
func (r *RawSnapshot) Snapshot(minSupport uint32) Snapshot {
	var s Snapshot
	for _, e := range r.pairs {
		if e.Count >= minSupport {
			s.Pairs = append(s.Pairs, PairCount{Pair: e.Key, Count: e.Count, Tier: e.Tier})
		}
	}
	for _, e := range r.items {
		if e.Count >= minSupport {
			s.Items = append(s.Items, ItemCount{Extent: e.Key, Count: e.Count, Tier: e.Tier})
		}
	}
	s.sort()
	return s
}

// Rules derives directional association rules from the capture,
// producing exactly what Analyzer.Rules would have at capture time:
// the antecedent lookup consults every captured item (the full item
// table), and compareRules is a total order, so the output is
// reproducible entry for entry.
func (r *RawSnapshot) Rules(minSupport uint32, minConfidence float64) []Rule {
	return r.TopRules(minSupport, minConfidence, 0)
}

// TopRules is Rules bounded to the limit highest-ranked rules (all of
// them when limit <= 0); the result is exactly Rules(...)[:limit].
func (r *RawSnapshot) TopRules(minSupport uint32, minConfidence float64, limit int) []Rule {
	return RawGroup{r}.TopRules(minSupport, minConfidence, limit)
}

// indexItems builds the capture's item index unless a read since the
// last capture already has: once per capture however many reads share
// it, and never for a capture that only feeds an export or a
// checkpoint.
func (r *RawSnapshot) indexItems() {
	if !r.itemIdxOK {
		r.itemIdx.build(len(r.items), r.itemKey)
		r.itemIdxOK = true
	}
}

func (r *RawSnapshot) itemKey(i int) blktrace.Extent { return r.items[i].Key }

// itemCount returns a captured item's counter, 0 when the extent is not
// in the capture. indexItems must have run since the capture.
func (r *RawSnapshot) itemCount(ext blktrace.Extent) uint32 {
	if i := r.itemIdx.lookup(ext, r.itemKey); i >= 0 {
		return r.items[i].Count
	}
	return 0
}

// WriteTo serialises the capture in the synopsis snapshot format,
// byte-identical to what Analyzer.WriteTo would have produced at
// capture time (Analyzer.WriteTo delegates here). It implements
// io.WriterTo, so a capture plugs directly into checkpoint stores.
func (r *RawSnapshot) WriteTo(w io.Writer) (int64, error) {
	return encodeSnapshot(w, r.cfg, r.stats, r.items, r.pairs)
}
