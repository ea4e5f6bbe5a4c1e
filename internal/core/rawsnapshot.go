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

	// Where the capture sits in its analyzer's history, for the reader
	// that derives each export from the one it derived last (Exporter)
	// instead of from scratch: which analyzer, the how-manieth capture of
	// it, and per table what a later capture needs to tell what changed
	// since this one. WriteTo ignores all of it.
	origin  *captureOrigin
	seq     uint32
	itemLog captureLog[blktrace.Extent]
	pairLog captureLog[blktrace.Pair]
}

// captureOrigin identifies one run of stamps: captures compare by the
// address. An analyzer draws a new one when it is built and when its
// capture sequence wraps, so stamps of different runs never meet.
type captureOrigin struct{ _ byte }

// captureLog is one table's change record inside a capture.
type captureLog[K comparable] struct {
	// stamps[i] is the capture sequence at the last content change of
	// entry i of the capture.
	stamps []uint32
	// gone is the table's discard ring at capture time, oldest first;
	// discards counts the table's discards up to then, so the discards
	// since an earlier capture are a suffix of gone for as long as the
	// ring has not lapped them.
	gone     []K
	discards uint64
}

// captureMark is what a reader keeps of the capture it last derived
// its product from, to ask the next capture what changed since. The
// zero mark precedes nothing.
type captureMark struct {
	origin                     *captureOrigin
	seq                        uint32
	itemDiscards, pairDiscards uint64
}

func (r *RawSnapshot) mark() captureMark {
	return captureMark{origin: r.origin, seq: r.seq, itemDiscards: r.itemLog.discards, pairDiscards: r.pairLog.discards}
}

// goneSince returns the keys both tables discarded between the capture
// m marks and this one. Together with the entries stamped after m.seq
// they are everything that separates the two captures. ok is false when
// r cannot tell: m marks a capture of another analyzer (or none, or a
// later one), or a discard ring has lapped.
func (r *RawSnapshot) goneSince(m captureMark) (items []blktrace.Extent, pairs []blktrace.Pair, ok bool) {
	if m.origin == nil || m.origin != r.origin || m.seq > r.seq {
		return nil, nil, false
	}
	items, itemsOK := r.itemLog.goneSince(m.itemDiscards)
	pairs, pairsOK := r.pairLog.goneSince(m.pairDiscards)
	return items, pairs, itemsOK && pairsOK
}

// goneSince returns the keys the table discarded after the capture that
// counted since of them; ok is false when the ring no longer holds
// them all.
func (c *captureLog[K]) goneSince(since uint64) (keys []K, ok bool) {
	n := c.discards - since
	if since > c.discards || n > uint64(len(c.gone)) {
		return nil, false
	}
	return c.gone[len(c.gone)-int(n):], true
}

// CaptureSnapshot copies the analyzer's full state into r, reusing r's
// buffers. It costs O(live entries) with no sorting or encoding and,
// once r's buffers have grown to the table sizes, no allocation — this
// is the only part of a snapshot/checkpoint/rules read that must run
// on the analyzer's owning goroutine.
//
// It is not a pure read: a capture closes the tables' stamp period
// (Table.seq advances, so later changes are told apart from the ones r
// carries) and, when the sequence wraps, restamps every entry under a
// new origin. The analyzed content is untouched, but the call writes to
// the analyzer and so must run where Process does.
func (a *Analyzer) CaptureSnapshot(r *RawSnapshot) {
	r.cfg = a.cfg
	r.stats = a.stats
	r.origin, r.seq = a.origin, a.items.seq
	r.items = a.items.capture(r.items[:0], &r.itemLog)
	r.pairs = a.pairs.capture(r.pairs[:0], &r.pairLog)
	r.itemIdxOK = false
	if a.items.seq == 0 {
		// The 32-bit sequence wrapped. Start a new run of stamps under a
		// new origin: no reader's base survives it, so each rebuilds once.
		a.items.restamp()
		a.pairs.restamp()
		a.origin = new(captureOrigin)
	}
}

// capture appends every entry (T2 first, each tier MRU→LRU — the
// Entries(0) order) to buf and returns the extended slice, fills c with
// the entries' stamps and the discard ring, and closes the stamp period:
// changes from here on carry the next sequence number. It allocates only
// when a buffer lacks capacity, so reused buffers make repeated captures
// allocation-free.
func (t *Table[K]) capture(buf []Entry[K], c *captureLog[K]) []Entry[K] {
	c.stamps = c.stamps[:0]
	for _, l := range [...]*lruList{&t.t2, &t.t1} {
		for s := l.front; s != nilSlot; s = t.arena[s].next {
			e := &t.arena[s]
			buf = append(buf, Entry[K]{Key: e.key, Count: e.count, Tier: e.tier})
			c.stamps = append(c.stamps, e.stamp)
		}
	}
	c.discards = t.discards
	c.gone = c.gone[:0]
	if n := int(min(t.discards, uint64(len(t.gone)))); n > 0 {
		oldest := int((t.discards - uint64(n)) & uint64(len(t.gone)-1))
		c.gone = append(c.gone, t.gone[oldest:min(oldest+n, len(t.gone))]...)
		c.gone = append(c.gone, t.gone[:n-len(c.gone)]...)
	}
	t.seq++
	return buf
}

// restamp starts the capture sequence over with every entry unchanged
// in it.
func (t *Table[K]) restamp() {
	for i := range t.arena {
		t.arena[i].stamp = 0
	}
	t.seq = 1
}

// Snapshot derives the sorted public export from the capture, exactly
// as Analyzer.Snapshot would have at capture time: entries with
// counter >= minSupport, descending counter, ties by key.
func (r *RawSnapshot) Snapshot(minSupport uint32) Snapshot {
	return RawGroup{r}.Snapshot(minSupport)
}

// TopRules is the rules of RawGroup{r}.State: the limit highest-ranked
// directional rules of the capture (none when limit <= 0), exactly
// Analyzer.Rules at capture time cut to limit. It remains only because
// the repository benchmark's layer probe calls it.
func (r *RawSnapshot) TopRules(minSupport uint32, minConfidence float64, limit int) []Rule {
	return RawGroup{r}.State(minSupport, minConfidence, limit, WantRules).Rules
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
