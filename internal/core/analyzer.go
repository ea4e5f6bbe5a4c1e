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

// pairLinks are one correlation-table entry's links in the intrusive
// pair-membership lists: every live pair entry is threaded into two
// doubly linked lists, one per member extent (one list when A == B),
// anchored by Analyzer.pairHeads. The links are stored in a flat slice
// parallel to the pair table's entry arena and addressed by the same
// slot index, replacing the old map[Extent]map[Pair]struct{} index —
// membership updates become pointer writes into pre-allocated memory
// instead of per-pair map insertions.
type pairLinks struct {
	nextA, prevA int32 // neighbours in A's membership list
	nextB, prevB int32 // neighbours in B's membership list
}

// Analyzer is the online analysis module: it consumes transactions and
// maintains the synopsis data structure. Analyzer is not safe for
// concurrent use; callers (the monitor pipeline) feed it from a single
// goroutine, matching the paper's single-pass stream model.
type Analyzer struct {
	cfg   Config
	items *Table[blktrace.Extent]
	pairs *Table[blktrace.Pair]

	// pairHeads anchors, per member extent, the intrusive list of live
	// correlation-table entries containing that extent, so the eviction
	// rule "when an extent is evicted from the item table, we also
	// demote it in the correlation table" is O(pairs containing that
	// extent). pairLinks[slot] carries the list links for the pair
	// entry living in arena slot `slot` of the pair table. The anchors
	// live in an open-addressing map (oaindex.go) for the same reason
	// the tables do: the Θ(N²) pair loop consults it on every insert
	// and eviction, and its size is bounded by twice the live pair
	// count.
	pairHeads *oaMap[blktrace.Extent]
	pairLinks []pairLinks

	// pendingDemote collects extents whose item-table entry was
	// evicted during the current batch of touches; their pairs are
	// demoted after the touch completes so that the pair table is not
	// mutated re-entrantly from inside its own callbacks.
	pendingDemote []blktrace.Extent
	// demoteScratch is the persistent sort buffer flushDemotions reuses
	// across transactions, keeping the steady-state path allocation-free.
	demoteScratch []blktrace.Pair
	// memberSeen is checkMembershipInvariants's reusable per-slot
	// thread-count scratch (indexed by pair arena slot), so the checker
	// stays cheap enough to run inside fuzz loops.
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
// with monitor.Config and pipeline.Config.
func (c Config) Validate() error {
	if c.ItemCapacity <= 0 || c.PairCapacity <= 0 {
		return fmt.Errorf("core: capacities must be positive (items %d, pairs %d)",
			c.ItemCapacity, c.PairCapacity)
	}
	return nil
}

// NewAnalyzer returns an analyzer with empty tables.
func NewAnalyzer(cfg Config) (*Analyzer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Analyzer{origin: new(captureOrigin)}
	a.cfg = cfg
	i1, i2 := splitTiers(cfg.ItemCapacity, cfg.TierRatio)
	p1, p2 := splitTiers(cfg.PairCapacity, cfg.TierRatio)
	// Each live pair anchors at most two member lists, so the head map
	// holds at most 2·(p1+p2) entries; pre-size for that (under the
	// same cap as the entry arenas) so steady state never rehashes.
	a.pairHeads = newOAMap[blktrace.Extent](min(2*(p1+p2), arenaMaxPrealloc))
	var err error
	a.items, err = NewTable[blktrace.Extent](TableConfig{
		Capacity1:        i1,
		Capacity2:        i2,
		PromoteThreshold: cfg.PromoteThreshold,
	}, a.onItemEvict)
	if err != nil {
		return nil, err
	}
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

func (a *Analyzer) onItemEvict(e blktrace.Extent, _ uint32) {
	a.stats.ItemEvictions++
	a.pendingDemote = append(a.pendingDemote, e)
}

// onPairEvict unthreads an evicted correlation-table entry from both
// member extents' intrusive lists. It runs before the table recycles
// the slot, so the slot index is still valid for link surgery.
func (a *Analyzer) onPairEvict(s int32, p blktrace.Pair, _ uint32) {
	a.stats.PairEvictions++
	a.unlinkMember(s, p.A)
	if p.A != p.B {
		a.unlinkMember(s, p.B)
	}
}

// memberNext returns the slot after s in e's membership list; a pair
// entry uses its A-side links when e is its A extent, B-side otherwise.
func (a *Analyzer) memberNext(s int32, e blktrace.Extent) int32 {
	if a.pairs.keyAt(s).A == e {
		return a.pairLinks[s].nextA
	}
	return a.pairLinks[s].nextB
}

func (a *Analyzer) memberPrev(s int32, e blktrace.Extent) int32 {
	if a.pairs.keyAt(s).A == e {
		return a.pairLinks[s].prevA
	}
	return a.pairLinks[s].prevB
}

func (a *Analyzer) setMemberNext(s int32, e blktrace.Extent, v int32) {
	if a.pairs.keyAt(s).A == e {
		a.pairLinks[s].nextA = v
	} else {
		a.pairLinks[s].nextB = v
	}
}

func (a *Analyzer) setMemberPrev(s int32, e blktrace.Extent, v int32) {
	if a.pairs.keyAt(s).A == e {
		a.pairLinks[s].prevA = v
	} else {
		a.pairLinks[s].prevB = v
	}
}

// linkMember pushes slot s onto the head of e's membership list.
func (a *Analyzer) linkMember(s int32, e blktrace.Extent) {
	h, _ := a.pairHeads.Get(e) // nilSlot when absent
	a.setMemberNext(s, e, h)
	a.setMemberPrev(s, e, nilSlot)
	if h != nilSlot {
		a.setMemberPrev(h, e, s)
	}
	a.pairHeads.Set(e, s)
}

// unlinkMember removes slot s from e's membership list, dropping the
// head anchor when the list empties.
func (a *Analyzer) unlinkMember(s int32, e blktrace.Extent) {
	prev, next := a.memberPrev(s, e), a.memberNext(s, e)
	if prev != nilSlot {
		a.setMemberNext(prev, e, next)
	} else if next != nilSlot {
		a.pairHeads.Set(e, next)
	} else {
		a.pairHeads.Delete(e)
	}
	if next != nilSlot {
		a.setMemberPrev(next, e, prev)
	}
}

// registerPair threads the pair entry in arena slot s into the
// membership lists of its member extents (one list when A == B).
func (a *Analyzer) registerPair(s int32, p blktrace.Pair) {
	for int(s) >= len(a.pairLinks) {
		a.pairLinks = append(a.pairLinks, pairLinks{})
	}
	a.pairLinks[s] = pairLinks{nextA: nilSlot, prevA: nilSlot, nextB: nilSlot, prevB: nilSlot}
	a.linkMember(s, p.A)
	if p.A != p.B {
		a.linkMember(s, p.B)
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
// the others would touch nothing.
func (a *Analyzer) ProcessPartition(extents []blktrace.Extent, part, parts int) {
	for _, e := range extents {
		if PartitionOf(e, parts) != part {
			continue
		}
		a.stats.Extents++
		switch a.items.Touch(e) {
		case Promoted:
			a.stats.ItemPromotions++
		}
	}
	for i := 0; i < len(extents); i++ {
		for j := i + 1; j < len(extents); j++ {
			p := blktrace.MakePair(extents[i], extents[j])
			if PartitionOf(p.A, parts) != part {
				continue
			}
			a.stats.PairTouches++
			r, s := a.pairs.touch(p)
			switch r {
			case Inserted:
				a.registerPair(s, p)
			case Promoted:
				a.stats.PairPromotions++
			}
		}
	}
	a.flushDemotions()
}

// flushDemotions applies the item-eviction → pair-demotion rule for
// every item evicted during the last batch of touches. Pairs of one
// evicted extent are demoted in canonical order so the analyzer is
// fully deterministic (membership-list order must not leak into the
// LRU order, or replays and restored snapshots would diverge). The
// sort runs over a persistent scratch buffer with a non-capturing
// comparison function, so the steady-state path allocates nothing.
func (a *Analyzer) flushDemotions() {
	for _, e := range a.pendingDemote {
		batch := a.demoteScratch[:0]
		s, _ := a.pairHeads.Get(e) // nilSlot when absent
		for ; s != nilSlot; s = a.memberNext(s, e) {
			batch = append(batch, a.pairs.keyAt(s))
		}
		slices.SortFunc(batch, blktrace.Pair.Compare)
		for _, p := range batch {
			if a.pairs.Demote(p) {
				a.stats.PairDemotions++
			}
		}
		a.demoteScratch = batch
	}
	a.pendingDemote = a.pendingDemote[:0]
}

// checkMembershipInvariants verifies that the intrusive membership
// lists exactly mirror the live correlation-table entries: every live
// pair is threaded into each member extent's list exactly once, links
// are mutually consistent, and no list reaches a dead slot. O(pairs);
// used by tests and fuzz targets via an export_test shim.
func (a *Analyzer) checkMembershipInvariants() error {
	if err := a.pairHeads.checkInvariants(); err != nil {
		return err
	}
	// Per-slot thread counts in a reusable scratch slice (indexed by
	// pair arena slot) instead of a map allocated per call.
	if cap(a.memberSeen) < len(a.pairLinks) {
		a.memberSeen = make([]uint8, len(a.pairLinks))
	}
	seen := a.memberSeen[:len(a.pairLinks)]
	clear(seen)
	var walkErr error
	a.pairHeads.Range(func(e blktrace.Extent, h int32) bool {
		if h == nilSlot {
			walkErr = fmt.Errorf("extent %v anchors a nil head", e)
			return false
		}
		prev := nilSlot
		for s := h; s != nilSlot; s = a.memberNext(s, e) {
			if int(s) >= len(a.pairLinks) || s < 0 {
				walkErr = fmt.Errorf("extent %v list reaches out-of-range slot %d", e, s)
				return false
			}
			p := a.pairs.keyAt(s)
			if p.A != e && p.B != e {
				walkErr = fmt.Errorf("slot %d (%v) threaded into list of non-member %v", s, p, e)
				return false
			}
			if a.pairs.lookup(p) != s {
				walkErr = fmt.Errorf("slot %d (%v) in membership list is not live in the pair table", s, p)
				return false
			}
			if a.memberPrev(s, e) != prev {
				walkErr = fmt.Errorf("slot %d (%v): prev link broken in %v's list", s, p, e)
				return false
			}
			seen[s]++
			if seen[s] > 2 {
				walkErr = fmt.Errorf("slot %d threaded more than twice (cycle?)", s)
				return false
			}
			prev = s
		}
		return true
	})
	if walkErr != nil {
		return walkErr
	}
	// Every live pair must be threaded exactly once per distinct member.
	// Zeroing consumed counts as we go leaves any dead-slot threading
	// behind as a nonzero residue.
	for _, l := range [...]*lruList{&a.pairs.t2, &a.pairs.t1} {
		for s := l.front; s != nilSlot; s = a.pairs.arena[s].next {
			p := a.pairs.arena[s].key
			want := uint8(2)
			if p.A == p.B {
				want = 1
			}
			if seen[s] != want {
				return fmt.Errorf("pair %v (slot %d) threaded %d times, want %d", p, s, seen[s], want)
			}
			seen[s] = 0
		}
	}
	for s, n := range seen {
		if n != 0 {
			return fmt.Errorf("dead slot %d threaded %d times", s, n)
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
