package core

import (
	"slices"

	"daccor/internal/blktrace"
)

// Rule is a directional association between extents: when From is
// requested, To is likely to be requested in the same transaction
// window. Confidence is the classic association-rule estimate
// freq(From ∧ To) / freq(From), computed from the live synopsis tables
// — the directional form optimizers like prefetchers need (reading an
// inode predicts its data blocks far more strongly than the reverse).
type Rule struct {
	From, To   blktrace.Extent
	Support    uint32
	Confidence float64
}

// Rules extracts directional rules from the synopsis: every pair with
// counter >= minSupport yields up to two rules (one per direction),
// kept when the antecedent extent is still resident in the item table
// and the confidence meets minConfidence. Rules are sorted by
// descending confidence, then support, then key order.
//
// Confidences are estimates: both counters are maintained under LRU
// eviction, so an extent readmitted after eviction restarts its tally.
// Values are clamped to 1. A bounded read captures the analyzer and
// reads RawGroup.State, which selects the top K without building or
// sorting the full list.
func (a *Analyzer) Rules(minSupport uint32, minConfidence float64) []Rule {
	sink := newRuleSink(0)
	for _, e := range a.pairs.Entries(minSupport) {
		sink.addPair(e.Key, e.Count, minConfidence, func(ext blktrace.Extent) uint32 {
			c, ok := a.items.Count(ext)
			if !ok {
				return 0
			}
			return c
		})
	}
	return sink.finish()
}

// compareRules is the rule presentation order shared by every
// extraction path: descending confidence, then descending support,
// then key order. It is total (no two distinct rules compare equal),
// which is what makes top-K selection identical to
// full-sort-then-truncate.
func compareRules(a, b Rule) int {
	if a.Confidence != b.Confidence {
		if a.Confidence > b.Confidence {
			return -1
		}
		return 1
	}
	if a.Support != b.Support {
		if a.Support > b.Support {
			return -1
		}
		return 1
	}
	if a.From != b.From {
		if a.From.Less(b.From) {
			return -1
		}
		return 1
	}
	switch {
	case a.To.Less(b.To):
		return -1
	case b.To.Less(a.To):
		return 1
	}
	return 0
}

// topK selects the limit best values under cmp (negative = ranks
// first), or keeps every value when limit <= 0. With a positive limit
// vals is a binary heap whose root is the worst value kept, so a
// candidate costs one comparison against the root unless it displaces
// it, and selection never holds more than limit values. cmp must be a
// total order for the selection to equal sort-then-truncate.
type topK[T any] struct {
	limit int
	cmp   func(a, b T) int
	vals  []T
}

func newTopK[T any](limit int, cmp func(a, b T) int) topK[T] {
	s := topK[T]{limit: limit, cmp: cmp}
	if limit > 0 {
		s.vals = make([]T, 0, limit)
	}
	return s
}

// full reports whether a further value can only enter by displacing
// the worst one kept, vals[0].
func (s *topK[T]) full() bool { return s.limit > 0 && len(s.vals) == s.limit }

func (s *topK[T]) add(v T) {
	switch {
	case s.limit <= 0:
		s.vals = append(s.vals, v)
	case len(s.vals) < s.limit:
		s.vals = append(s.vals, v)
		for i := len(s.vals) - 1; i > 0; {
			parent := (i - 1) / 2
			if s.cmp(s.vals[i], s.vals[parent]) <= 0 {
				break
			}
			s.vals[i], s.vals[parent] = s.vals[parent], s.vals[i]
			i = parent
		}
	case s.cmp(v, s.vals[0]) < 0: // beats the worst kept value
		s.vals[0] = v
		for i := 0; ; {
			worst := i
			for c := 2*i + 1; c <= 2*i+2 && c < len(s.vals); c++ {
				if s.cmp(s.vals[c], s.vals[worst]) > 0 {
					worst = c
				}
			}
			if worst == i {
				break
			}
			s.vals[i], s.vals[worst] = s.vals[worst], s.vals[i]
			i = worst
		}
	}
}

// finish sorts and returns the kept values, best first; nil when none.
func (s *topK[T]) finish() []T {
	if len(s.vals) == 0 {
		return nil
	}
	slices.SortFunc(s.vals, s.cmp)
	return s.vals
}

// ruleSink accumulates candidate rules under compareRules: everything
// with limit <= 0, only the limit best otherwise, so a bounded
// extraction never materializes more than limit rules.
type ruleSink struct {
	topK[Rule]
}

func newRuleSink(limit int) *ruleSink {
	return &ruleSink{newTopK(limit, compareRules)}
}

// addPair emits the up-to-two directional rules of one pair entry into
// the sink: the shared candidate-generation step of every extraction
// path. The caller has already applied minSupport to count; itemCount
// resolves an antecedent to its item counter (0 = absent).
//
// Confidence is clamped to 1 and both directions carry count as their
// support, so once the sink is full and even its worst rule has
// confidence 1 at a support above count, neither direction can enter
// and both antecedent lookups are skipped. Equal support is not pruned:
// there the key order decides.
func (s *ruleSink) addPair(p blktrace.Pair, count uint32, minConfidence float64, itemCount func(blktrace.Extent) uint32) {
	if s.full() && s.vals[0].Confidence == 1 && s.vals[0].Support > count {
		return
	}
	for _, dir := range [2][2]blktrace.Extent{{p.A, p.B}, {p.B, p.A}} {
		from, to := dir[0], dir[1]
		if from == to {
			continue
		}
		fromCount := itemCount(from)
		if fromCount == 0 {
			continue
		}
		conf := float64(count) / float64(fromCount)
		if conf > 1 {
			conf = 1
		}
		if conf < minConfidence {
			continue
		}
		s.add(Rule{From: from, To: to, Support: count, Confidence: conf})
	}
}
