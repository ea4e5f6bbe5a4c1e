package core

import (
	"fmt"
	"slices"

	"daccor/internal/blktrace"
)

// Config configures the online analysis module.
type Config struct {
	// ItemCapacity is C for the item table: each of its two tiers
	// holds up to ItemCapacity extents. One entry costs 16 bytes in
	// the paper's accounting (12-byte extent + 32-bit counter).
	ItemCapacity int
	// PairCapacity is C for the correlation table: each of its two
	// tiers holds up to PairCapacity extent pairs. One entry costs
	// 28 bytes (two extents + counter). The paper uses the same C for
	// both tables, giving 88C bytes total.
	PairCapacity int
	// PromoteThreshold is the sighting count that promotes an entry
	// from T1 to T2 in both tables; 0 means DefaultPromoteThreshold.
	PromoteThreshold uint32
	// TierRatio optionally skews the T1:T2 split. 0 means equal
	// tiers, the paper's choice. A value r in (0, 1) gives T1 a
	// fraction r of the 2C entries (e.g. 0.75 makes T1 three times
	// T2). Used by the tier-split ablation.
	TierRatio float64
}

// Per-entry byte costs from the paper's memory accounting (Sec. IV-C1).
const (
	ItemEntryBytes = 16 // 64-bit block + 32-bit length + 32-bit counter
	PairEntryBytes = 28 // two extents + 32-bit counter
)

func splitTiers(c int, ratio float64) (t1, t2 int) {
	total := 2 * c
	if ratio <= 0 || ratio >= 1 {
		return c, c
	}
	t1 = int(float64(total) * ratio)
	if t1 < 1 {
		t1 = 1
	}
	if t1 > total-1 {
		t1 = total - 1
	}
	return t1, total - t1
}

// memberLink is one side of a correlation-table entry in the intrusive
// pair-membership lists: every live pair entry is threaded into the
// list of each member extent its analyzer owns (see PartitionOf): A's
// always, B's too when B is owned and differs from A. The links sit in
// a flat slice, two per pair arena slot, addressed by a link value
// slot<<1 | side (side 0 for A, 1 for B), so a link names the side it
// belongs to and list surgery never reads a neighbour's key to learn
// which of its links to rewrite.
//
// next is the following link value in the list, or nilSlot at the end.
// prev is the preceding link value, or, on a list's first node, its
// owner: itemOwner(s) when the list is anchored at Analyzer.itemHeads[s]
// and orphanOwner when it is anchored in Analyzer.orphans. A side in no
// list carries prev == unthreaded.
type memberLink struct {
	next, prev int32
}

// Owner and state markers stored in memberLink.prev; link values are
// never negative.
const (
	unthreaded  int32 = -1 // the side is in no list
	orphanOwner int32 = -2 // first node of a list anchored in Analyzer.orphans
)

// itemOwner is the prev marker of the first node of the list anchored at
// item arena slot s; ownerSlot inverts it.
func itemOwner(s int32) int32 { return -3 - s }

func ownerSlot(prev int32) int32 { return -3 - prev }

// memberSide is the link value of one side of the pair in arena slot s.
func memberSide(s int32, side int32) int32 { return s<<1 | side }

// Analyzer is the online analysis module: it consumes transactions and
// maintains the synopsis data structure. Analyzer is not safe for
// concurrent use; callers (the monitor pipeline) feed it from a single
// goroutine, matching the paper's single-pass stream model.
type Analyzer struct {
	cfg   Config
	items *Table[blktrace.Extent]
	pairs *Table[blktrace.Pair]

	// itemHeads anchors, per item arena slot, the intrusive list of
	// live correlation-table entries containing that slot's extent, so
	// the eviction rule "when an extent is evicted from the item table,
	// we also demote it in the correlation table" is O(pairs containing
	// that extent). It parallels the item arena: the touch that admits
	// an extent returns its slot, so registering a new pair reaches both
	// heads without hashing. links carries the list links, two per pair
	// arena slot (see memberLink).
	itemHeads []int32
	links     []memberLink
	// orphans anchors the lists of extents that have pairs but no item
	// entry: an item eviction moves its list here (the pairs outlive the
	// item), a pair registered for an absent member starts one, and the
	// extent's next admission adopts its list back. Only an extent
	// evicted (or shed by a restore) while pairs containing it live on
	// can lack an item entry, so while the item table never evicts the
	// map stays empty and the hot path never probes it.
	orphans *oaMap[blktrace.Extent]
	// txSlots is ProcessPartition's per-transaction scratch: the item
	// slot each extent was touched at, or unowned.
	txSlots []int32

	// pendingDemote collects extents whose item-table entry was
	// evicted during the current batch of touches; their pairs are
	// demoted after the touch completes so that the pair table is not
	// mutated re-entrantly from inside its own callbacks.
	pendingDemote []blktrace.Extent
	// demoteScratch is the persistent sort buffer flushDemotions reuses
	// across transactions, keeping the steady-state path allocation-free.
	demoteScratch []demotion
	// memberSeen is checkMembershipInvariants's reusable per-link
	// thread-count scratch (indexed by link value), so the checker stays
	// cheap enough to run inside fuzz loops.
	memberSeen []uint8

	stats Stats

	// origin names the run of capture stamps the tables are in; see
	// CaptureSnapshot.
	origin *captureOrigin
}

// Stats counts what the analyzer has processed and how the tables
// behaved.
type Stats struct {
	Transactions   uint64 // transactions processed
	Extents        uint64 // extent touches (item table)
	PairTouches    uint64 // pair touches (correlation table)
	ItemEvictions  uint64
	PairEvictions  uint64
	ItemPromotions uint64
	PairPromotions uint64
	PairDemotions  uint64 // demotions triggered by item evictions
}

// Add returns the counter-by-counter sum of s and o: the stats of
// several partitions or devices taken together.
func (s Stats) Add(o Stats) Stats {
	of := o.fields()
	for i, p := range s.fields() {
		*p += *of[i]
	}
	return s
}

// Validate reports whether the configuration can build an analyzer.
// It is the core leg of the unified Config/Validate surface shared
// with monitor.Config and pipeline.Config. A capacity is at most
// MaxSnapshotCapacity, the bound LoadAnalyzer holds a snapshot header
// to, so every analyzer built can be restored from its own checkpoint.
func (c Config) Validate() error {
	if c.ItemCapacity <= 0 || c.PairCapacity <= 0 ||
		c.ItemCapacity > MaxSnapshotCapacity || c.PairCapacity > MaxSnapshotCapacity {
		return fmt.Errorf("core: capacities must be 1 to %d (items %d, pairs %d)",
			MaxSnapshotCapacity, c.ItemCapacity, c.PairCapacity)
	}
	return nil
}

// NewAnalyzer returns an analyzer with empty tables.
func NewAnalyzer(cfg Config) (*Analyzer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Analyzer{origin: new(captureOrigin), orphans: newOAMap[blktrace.Extent](0)}
	a.cfg = cfg
	i1, i2 := splitTiers(cfg.ItemCapacity, cfg.TierRatio)
	p1, p2 := splitTiers(cfg.PairCapacity, cfg.TierRatio)
	var err error
	a.items, err = NewTable[blktrace.Extent](TableConfig{
		Capacity1:        i1,
		Capacity2:        i2,
		PromoteThreshold: cfg.PromoteThreshold,
	}, nil)
	if err != nil {
		return nil, err
	}
	a.items.onEvictSlot = a.onItemEvict
	a.itemHeads = make([]int32, 0, cap(a.items.arena))
	a.pairs, err = NewTable[blktrace.Pair](TableConfig{
		Capacity1:        p1,
		Capacity2:        p2,
		PromoteThreshold: cfg.PromoteThreshold,
	}, nil)
	if err != nil {
		return nil, err
	}
	a.pairs.onEvictSlot = a.onPairEvict
	return a, nil
}

// onItemEvict queues the evicted extent's pairs for demotion and moves
// its membership list, if any, to the orphans: the pairs outlive the
// item, and the slot is about to be recycled for another extent.
func (a *Analyzer) onItemEvict(s int32, e blktrace.Extent, _ uint32) {
	a.stats.ItemEvictions++
	a.pendingDemote = append(a.pendingDemote, e)
	if h := a.itemHeads[s]; h != nilSlot {
		a.itemHeads[s] = nilSlot
		a.links[h].prev = orphanOwner
		a.orphans.Set(e, h)
	}
}

// admitItem anchors the list of the extent just admitted at item arena
// slot s: empty, or the one its eviction left among the orphans.
func (a *Analyzer) admitItem(s int32, e blktrace.Extent) {
	for int(s) >= len(a.itemHeads) {
		a.itemHeads = append(a.itemHeads, nilSlot)
	}
	h := nilSlot
	if a.orphans.Len() > 0 {
		if o, ok := a.orphans.Take(e); ok {
			h = o
			a.links[h].prev = itemOwner(s)
		}
	}
	a.itemHeads[s] = h
}

// onPairEvict unthreads an evicted correlation-table entry from its
// members' lists. It runs before the table recycles the slot.
func (a *Analyzer) onPairEvict(s int32, p blktrace.Pair, _ uint32) {
	a.stats.PairEvictions++
	a.unlinkMember(memberSide(s, 0), p.A)
	if b := memberSide(s, 1); a.links[b].prev != unthreaded {
		a.unlinkMember(b, p.B)
	}
}

// linkMember pushes link v onto the front of e's membership list. s is
// the item slot e was touched at, or nilSlot if unknown: a later
// admission in the same transaction may have evicted e and recycled the
// slot, so it is checked before use, and an extent with no item entry
// anchors its list among the orphans.
func (a *Analyzer) linkMember(v int32, e blktrace.Extent, s int32) {
	if !a.items.holds(s, e) {
		s = a.items.lookup(e)
	}
	var h, owner int32
	if s != nilSlot {
		h, owner = a.itemHeads[s], itemOwner(s)
		a.itemHeads[s] = v
	} else {
		h, _ = a.orphans.Get(e) // nilSlot when absent
		owner = orphanOwner
		a.orphans.Set(e, v)
	}
	a.links[v] = memberLink{next: h, prev: owner}
	if h != nilSlot {
		a.links[h].prev = v
	}
}

// unlinkMember removes the threaded link v from e's membership list.
// Only a list's first node needs e, and only when the list is an
// orphan's.
func (a *Analyzer) unlinkMember(v int32, e blktrace.Extent) {
	l := a.links[v]
	switch {
	case l.prev >= 0:
		a.links[l.prev].next = l.next
	case l.prev == orphanOwner:
		if l.next != nilSlot {
			a.orphans.Set(e, l.next)
		} else {
			a.orphans.Delete(e)
		}
	default:
		a.itemHeads[ownerSlot(l.prev)] = l.next
	}
	if l.next != nilSlot {
		a.links[l.next].prev = l.prev
	}
}

// unowned marks, in ProcessPartition's txSlots, an extent that another
// partition owns; registerPair leaves such a member unthreaded.
const unowned int32 = -2

// registerPair threads the new pair entry in arena slot s into its
// members' lists: A's, which its analyzer always owns, and B's unless B
// is A or sb is unowned. sa and sb are the item slots A and B were
// touched at (nilSlot when unknown; see linkMember).
func (a *Analyzer) registerPair(s int32, p blktrace.Pair, sa, sb int32) {
	for len(a.links) <= int(memberSide(s, 1)) {
		a.links = append(a.links, memberLink{next: nilSlot, prev: unthreaded})
	}
	a.linkMember(memberSide(s, 0), p.A, sa)
	if b := memberSide(s, 1); p.A == p.B || sb == unowned {
		a.links[b] = memberLink{next: nilSlot, prev: unthreaded}
	} else {
		a.linkMember(b, p.B, sb)
	}
}

// Process performs the single-pass update for one transaction: every
// extent is touched in the item table and every unique unordered pair
// of distinct extents is touched in the correlation table — Θ(N²) pair
// touches for N extents, which the monitor bounds with its transaction
// cap. Extents evicted from the item table have their surviving pairs
// demoted in the correlation table.
//
// The extents are assumed deduplicated (the monitor guarantees this);
// duplicates would distort correlation frequencies, as the paper notes
// for wdev.
func (a *Analyzer) Process(extents []blktrace.Extent) {
	a.stats.Transactions++
	a.ProcessPartition(extents, 0, 1)
}

// ProcessPartition is Process restricted to the slice of the synopsis
// that partition part of parts owns (see PartitionOf): an extent is
// touched iff it is owned, a pair iff its canonical minimum extent is.
// Touches happen in Process's order, so each partition's recency is
// the unpartitioned analyzer's restricted to its keys. At parts == 1
// everything is owned and this is Process's update.
//
// Stats.Transactions is NOT advanced: the transaction is shared across
// partitions and counted once by the caller. Every partition of a
// device must be fed every transaction that has an extent it owns;
// the others would touch nothing. An analyzer must always be fed under
// the same layout (part, parts): its membership lists thread only the
// members it owns.
func (a *Analyzer) ProcessPartition(extents []blktrace.Extent, part, parts int) {
	slots := a.txSlots[:0]
	for _, e := range extents {
		if PartitionOf(e, parts) != part {
			slots = append(slots, unowned)
			continue
		}
		a.stats.Extents++
		r, s := a.items.touch(e)
		switch r {
		case Inserted:
			a.admitItem(s, e)
		case Promoted:
			a.stats.ItemPromotions++
		}
		slots = append(slots, s)
	}
	a.txSlots = slots
	for i, ei := range extents {
		for j := i + 1; j < len(extents); j++ {
			ej := extents[j]
			p, sa, sb := blktrace.Pair{A: ei, B: ej}, slots[i], slots[j]
			if ej.Less(ei) { // blktrace.MakePair's canonical order
				p, sa, sb = blktrace.Pair{A: ej, B: ei}, sb, sa
			}
			if sa == unowned {
				continue
			}
			a.stats.PairTouches++
			r, s := a.pairs.touch(p)
			switch r {
			case Inserted:
				a.registerPair(s, p, sa, sb)
			case Promoted:
				a.stats.PairPromotions++
			}
		}
	}
	a.flushDemotions()
}

// demotion is one pair an item eviction demotes: its key, to sort by,
// and its arena slot, to move by.
type demotion struct {
	pair blktrace.Pair
	slot int32
}

func compareDemotions(x, y demotion) int { return x.pair.Compare(y.pair) }

// flushDemotions applies the item-eviction → pair-demotion rule for
// every item evicted during the last batch of touches. Pairs of one
// evicted extent are demoted in canonical order so the analyzer is
// fully deterministic (membership-list order must not leak into the
// LRU order, or replays and restored snapshots would diverge). The
// sort runs over a persistent scratch buffer with a non-capturing
// comparison function, so the steady-state path allocates nothing, and
// each pair moves by the slot its list gave, not by a second lookup.
func (a *Analyzer) flushDemotions() {
	for _, e := range a.pendingDemote {
		batch := a.demoteScratch[:0]
		for v := a.memberHead(e); v != nilSlot; v = a.links[v].next {
			s := v >> 1
			batch = append(batch, demotion{a.pairs.keyAt(s), s})
		}
		slices.SortFunc(batch, compareDemotions)
		for _, d := range batch {
			a.pairs.demoteSlot(d.slot)
		}
		a.stats.PairDemotions += uint64(len(batch))
		a.demoteScratch = batch
	}
	a.pendingDemote = a.pendingDemote[:0]
}

// memberHead returns the first link of e's membership list, or nilSlot
// when no live pair contains e. An extent evicted in this transaction
// keeps its list among the orphans; one admitted again since (which
// only a transaction with duplicate extents can do) has adopted it back.
func (a *Analyzer) memberHead(e blktrace.Extent) int32 {
	if h, ok := a.orphans.Get(e); ok {
		return h
	}
	if s := a.items.lookup(e); s != nilSlot {
		return a.itemHeads[s]
	}
	return nilSlot
}

// checkMembershipInvariants verifies that the intrusive membership
// lists of an analyzer fed as partition part of parts exactly mirror
// its live correlation-table entries: every live pair is threaded once
// into the list of each member it owns (A, and B when B is owned and
// differs from A) and into no other; every list is anchored by its
// extent's live item slot, or among the orphans when the extent has no
// item entry, never both; links and owners are mutually consistent;
// and no list reaches a dead slot. O(pairs + item slots); used by tests
// and fuzz targets via an export_test shim.
func (a *Analyzer) checkMembershipInvariants(part, parts int) error {
	if err := a.orphans.checkInvariants(); err != nil {
		return err
	}
	if len(a.itemHeads) != len(a.items.arena) {
		return fmt.Errorf("%d item heads for %d item slots", len(a.itemHeads), len(a.items.arena))
	}
	if len(a.links) != 2*len(a.pairs.arena) {
		return fmt.Errorf("%d links for %d pair slots", len(a.links), len(a.pairs.arena))
	}
	// Per-link thread counts in a reusable scratch slice instead of a
	// map allocated per call.
	if cap(a.memberSeen) < len(a.links) {
		a.memberSeen = make([]uint8, len(a.links))
	}
	seen := a.memberSeen[:len(a.links)]
	clear(seen)
	walk := func(e blktrace.Extent, h, owner int32) error {
		if PartitionOf(e, parts) != part {
			return fmt.Errorf("unowned extent %v anchors a list", e)
		}
		prev := owner
		for v := h; v != nilSlot; v = a.links[v].next {
			if v < 0 || int(v) >= len(a.links) {
				return fmt.Errorf("extent %v list reaches out-of-range link %d", e, v)
			}
			s := v >> 1
			p := a.pairs.keyAt(s)
			if member := [2]blktrace.Extent{p.A, p.B}[v&1]; member != e {
				return fmt.Errorf("link %d of %v threaded into list of %v", v, p, e)
			}
			if a.pairs.lookup(p) != s {
				return fmt.Errorf("slot %d (%v) in membership list is not live in the pair table", s, p)
			}
			if a.links[v].prev != prev {
				return fmt.Errorf("link %d of %v: prev %d in %v's list, want %d", v, p, a.links[v].prev, e, prev)
			}
			if seen[v] != 0 {
				return fmt.Errorf("link %d threaded twice (cycle?)", v)
			}
			seen[v] = 1
			prev = v
		}
		return nil
	}
	for s, h := range a.itemHeads {
		if h == nilSlot {
			continue
		}
		it := &a.items.arena[s]
		if it.tier == TierNone {
			return fmt.Errorf("free item slot %d anchors a list", s)
		}
		if _, ok := a.orphans.Get(it.key); ok {
			return fmt.Errorf("extent %v has both an item-anchored and an orphan list", it.key)
		}
		if err := walk(it.key, h, itemOwner(int32(s))); err != nil {
			return err
		}
	}
	var walkErr error
	a.orphans.Range(func(e blktrace.Extent, h int32) bool {
		if a.items.lookup(e) != nilSlot {
			walkErr = fmt.Errorf("live extent %v anchors an orphan list", e)
			return false
		}
		walkErr = walk(e, h, orphanOwner)
		return walkErr == nil
	})
	if walkErr != nil {
		return walkErr
	}
	// Every live pair must be threaded exactly once per owned member.
	// Zeroing consumed counts as we go leaves any dead-slot threading
	// behind as a nonzero residue.
	for _, l := range [...]*lruList{&a.pairs.t2, &a.pairs.t1} {
		for s := l.front; s != nilSlot; s = a.pairs.arena[s].next {
			p := a.pairs.arena[s].key
			va, vb := memberSide(s, 0), memberSide(s, 1)
			if seen[va] != 1 {
				return fmt.Errorf("pair %v (slot %d): A threaded %d times, want 1", p, s, seen[va])
			}
			wantB := p.A != p.B && PartitionOf(p.B, parts) == part
			if (seen[vb] == 1) != wantB || seen[vb] > 1 {
				return fmt.Errorf("pair %v (slot %d): B threaded %d times, owned and distinct %v", p, s, seen[vb], wantB)
			}
			if !wantB && a.links[vb].prev != unthreaded {
				return fmt.Errorf("pair %v (slot %d): B is in no list but not marked unthreaded", p, s)
			}
			seen[va], seen[vb] = 0, 0
		}
	}
	for v, n := range seen {
		if n != 0 {
			return fmt.Errorf("dead link %d threaded %d times", v, n)
		}
	}
	return nil
}

// Items exposes the item table (read-mostly; used by optimizers and
// tests).
func (a *Analyzer) Items() *Table[blktrace.Extent] { return a.items }

// Pairs exposes the correlation table.
func (a *Analyzer) Pairs() *Table[blktrace.Pair] { return a.pairs }

// Stats returns a copy of the processing counters.
func (a *Analyzer) Stats() Stats { return a.stats }

// Config returns the analyzer's configuration.
func (a *Analyzer) Config() Config { return a.cfg }

// MemoryBytes returns the synopsis footprint under the paper's
// accounting: 16 bytes per item-table slot and 28 per correlation-table
// slot (88C total when both capacities are C).
func (a *Analyzer) MemoryBytes() int {
	return a.items.Capacity()*ItemEntryBytes + a.pairs.Capacity()*PairEntryBytes
}
