package core

import "daccor/internal/blktrace"

// Want names the parts of a State a reader asks for; parts not asked
// for are left zero and cost nothing.
type Want uint8

const (
	// WantPairs asks for TotalPairs and Pairs.
	WantPairs Want = 1 << iota
	// WantRules asks for Rules.
	WantRules
)

// State is one bounded read of a synopsis view — what a snapshot page,
// a rules page, or a watch delivery serves — with every part derived
// from the same underlying state.
type State struct {
	// TotalPairs counts the pairs with counter >= the read's support.
	TotalPairs int
	// Pairs is the top highest-count of them in snapshot order
	// (comparePairCounts). It is nil exactly when TotalPairs is 0, so an
	// empty page of a non-empty view and an empty view stay distinct,
	// as they are for Snapshot(support).TopPairs(top). Read-only: it may
	// alias a shared export.
	Pairs []PairCount
	// Rules is Rules(support, confidence) cut to its top first entries;
	// nil when there are none.
	Rules []Rule
}

// State reads the group's bounded state in one linear pass over the
// captures, at every P: partition captures are disjoint by ownership,
// so counting, top-K selection and rule extraction need neither a
// merge nor a sort of the table. Pairs at or above minSupport are
// counted, the top best kept in a bounded heap, and the same entries
// feed the rule sink, with antecedents resolved through each capture's
// item index. The result equals Snapshot(minSupport) cut to top and
// Rules(minSupport, minConfidence) cut to top; top <= 0 keeps no
// entries of either kind.
func (g RawGroup) State(minSupport uint32, minConfidence float64, top int, want Want) State {
	return scanState(top, want, func(pairs *topK[PairCount], rules *ruleSink) int {
		return g.scan(minSupport, minConfidence, pairs, rules)
	})
}

// scanState assembles a State from one pass of scan over a view's
// pairs: scan returns the number of pairs at the read's support and
// offers each to the sinks that are set — a sink is set only for a
// part the read wants and top > 0 leaves room for.
func scanState(top int, want Want, scan func(pairs *topK[PairCount], rules *ruleSink) int) State {
	var (
		st    State
		pairs *topK[PairCount]
		rules *ruleSink
	)
	if want&WantPairs != 0 && top > 0 {
		k := newTopK(top, comparePairCounts)
		pairs = &k
	}
	if want&WantRules != 0 && top > 0 {
		rules = newRuleSink(top)
	}
	total := scan(pairs, rules)
	if want&WantPairs != 0 && total > 0 {
		st.TotalPairs = total
		st.Pairs = []PairCount{}
		if pairs != nil {
			st.Pairs = pairs.finish()
		}
	}
	if rules != nil {
		st.Rules = rules.finish()
	}
	return st
}

// scan is the one pass behind every read of a group that does not need
// the sorted export: it returns the number of pairs at or above
// minSupport and offers each to the sinks that are set.
func (g RawGroup) scan(minSupport uint32, minConfidence float64, pairs *topK[PairCount], rules *ruleSink) (total int) {
	if rules != nil {
		for _, r := range g {
			r.indexItems()
		}
	}
	itemCount := g.itemCount
	for _, r := range g {
		for i := range r.pairs {
			e := &r.pairs[i]
			if e.Count < minSupport {
				continue
			}
			total++
			if pairs != nil {
				pairs.add(PairCount{Pair: e.Key, Count: e.Count, Tier: e.Tier})
			}
			if rules != nil {
				rules.addPair(e.Key, e.Count, minConfidence, itemCount)
			}
		}
	}
	return total
}

// itemCount resolves a rule antecedent across the group: an extent's
// item entry lives only in the capture of the partition that owns it.
func (g RawGroup) itemCount(ext blktrace.Extent) uint32 {
	return g[PartitionOf(ext, len(g))].itemCount(ext)
}

// State cuts the bounded state out of a full sorted export (support
// 0, so every antecedent item is present): the pairs are a prefix of
// the count-sorted order, the rules a bounded extraction over it.
func (s Snapshot) State(minSupport uint32, minConfidence float64, top int, want Want) State {
	var st State
	if want&WantPairs != 0 {
		cut := s.FilterSupport(minSupport)
		st.TotalPairs, st.Pairs = len(cut.Pairs), cut.TopPairs(max(top, 0))
	}
	if want&WantRules != 0 && top > 0 {
		st.Rules = s.TopRules(minSupport, minConfidence, top)
	}
	return st
}

// State reads the union's bounded state in one linear pass over the
// pair arena, as RawGroup.State does over a device's captures: nothing
// table-sized is sorted, patched or allocated, and the sorted export
// (Snapshot) is neither built nor consulted. Pairs and rules describe
// the same union.
func (m *MergeIndex) State(minSupport uint32, minConfidence float64, top int, want Want) State {
	return scanState(top, want, func(pairs *topK[PairCount], rules *ruleSink) int {
		return m.scan(minSupport, minConfidence, pairs, rules)
	})
}

// scan is RawGroup.scan over the union: the number of pairs whose
// clamped sum is at or above minSupport, each offered to the sinks that
// are set, antecedents resolved through the item union's index.
func (m *MergeIndex) scan(minSupport uint32, minConfidence float64, pairs *topK[PairCount], rules *ruleSink) (total int) {
	itemCount := m.items.lookup
	for i := range m.pairs.arena {
		e := &m.pairs.arena[i]
		if e.refs <= 0 {
			continue
		}
		count := clampCount(e.sum)
		if count < minSupport {
			continue
		}
		total++
		if pairs != nil {
			pairs.add(PairCount{Pair: e.key, Count: count, Tier: tierOfUnion(e.t2)})
		}
		if rules != nil {
			rules.addPair(e.key, count, minConfidence, itemCount)
		}
	}
	return total
}
