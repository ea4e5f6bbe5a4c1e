package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"daccor/internal/blktrace"
)

// The MergeIndex's contract is differential: however it got to its
// current per-source states — full updates, deltas, removals,
// anti-entropy re-feeds — and however it has been read so
// far, its materialized union must be byte-identical to
// core.MergeSnapshots recomputed from scratch over the same states, and
// its bounded read to the bounded cut of that. These tests drive random
// operation streams against both and DeepEqual after every step that
// reads, with the internal accounting invariants checked after every
// step.

// genExtent returns the id-th extent of the test keyspace.
func genExtent(id int) blktrace.Extent {
	return blktrace.Extent{Block: uint64(id) * 8, Len: 8}
}

// genSnapshot builds a random sorted source export over a small shared
// keyspace (forcing cross-source overlap). Counts occasionally sit
// near the uint32 ceiling so merged sums exercise saturation.
func genSnapshot(rng *rand.Rand, keyspace int) Snapshot {
	items := make(map[blktrace.Extent]ItemCount)
	nItems := rng.Intn(keyspace)
	for i := 0; i < nItems; i++ {
		e := genExtent(rng.Intn(keyspace))
		items[e] = ItemCount{Extent: e, Count: genCount(rng), Tier: genTier(rng)}
	}
	pairs := make(map[blktrace.Pair]PairCount)
	nPairs := rng.Intn(keyspace)
	for i := 0; i < nPairs; i++ {
		a, b := rng.Intn(keyspace), rng.Intn(keyspace)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		p := blktrace.Pair{A: genExtent(a), B: genExtent(b)}
		pairs[p] = PairCount{Pair: p, Count: genCount(rng), Tier: genTier(rng)}
	}
	var s Snapshot
	for _, ic := range items {
		s.Items = append(s.Items, ic)
	}
	for _, pc := range pairs {
		s.Pairs = append(s.Pairs, pc)
	}
	s.sort()
	return s
}

func genCount(rng *rand.Rand) uint32 {
	if rng.Intn(8) == 0 { // saturation band: summing two of these clamps
		return math.MaxUint32 - uint32(rng.Intn(1000))
	}
	return 1 + uint32(rng.Intn(1000))
}

func genTier(rng *rand.Rand) Tier {
	if rng.Intn(3) == 0 {
		return Tier2
	}
	return Tier1
}

// groundTruth recomputes the union from scratch over the model states.
func groundTruth(states map[string]Snapshot) Snapshot {
	snaps := make([]Snapshot, 0, len(states))
	for _, s := range states {
		snaps = append(snaps, s)
	}
	return MergeSnapshots(snaps...)
}

func requireUnionEqual(t *testing.T, step int, idx *MergeIndex, states map[string]Snapshot) {
	t.Helper()
	got, want := idx.Snapshot(), groundTruth(states)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: incremental union diverged from MergeSnapshots: got %d/%d pairs/items, want %d/%d",
			step, len(got.Pairs), len(got.Items), len(want.Pairs), len(want.Items))
	}
	if err := idx.checkInvariants(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

// unionReader decides, step by step, how a differential walk reads the
// index: in stretches of bounded reads (State), of unbounded ones
// (Snapshot), and of no read at all.
type unionReader struct {
	rng  *rand.Rand
	mode int // 0 State, 1 Snapshot, 2 no read
	left int // steps left in this stretch
}

// check reads the index the way the current stretch says and holds
// what it reads to MergeSnapshots over the model states.
func (r *unionReader) check(t *testing.T, step int, idx *MergeIndex, states map[string]Snapshot) {
	t.Helper()
	if r.left == 0 {
		r.mode, r.left = r.rng.Intn(3), 1+r.rng.Intn(12)
	}
	r.left--
	switch r.mode {
	case 0:
		want := groundTruth(states)
		minSupport, minConf, top := uint32(r.rng.Intn(4)), float64(r.rng.Intn(3))/2, []int{0, 1, 8, maxTop}[r.rng.Intn(4)]
		got := idx.State(minSupport, minConf, top, WantPairs|WantRules)
		if !reflect.DeepEqual(got, want.State(minSupport, minConf, top, WantPairs|WantRules)) {
			t.Fatalf("step %d: State(%d, %v, %d) diverged from the cut of MergeSnapshots: %d pairs of %d / %d rules",
				step, minSupport, minConf, top, len(got.Pairs), got.TotalPairs, len(got.Rules))
		}
	case 1:
		requireUnionEqual(t, step, idx, states)
		return
	}
	if err := idx.checkInvariants(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

func TestMergeIndexDifferential(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		rng := rand.New(rand.NewSource(seed))
		reader := &unionReader{rng: rng}
		idx := NewMergeIndex()
		states := make(map[string]Snapshot)
		sources := []string{"s0", "s1", "s2", "s3", "s4"}
		const keyspace = 24
		for step := 0; step < 400; step++ {
			src := sources[rng.Intn(len(sources))]
			switch op := rng.Intn(10); {
			case op < 3: // full update (covers anti-entropy re-feed)
				next := genSnapshot(rng, keyspace)
				idx.Update(src, next)
				states[src] = next
			case op < 4: // the walk needs unique keys per side, not order
				next := genSnapshot(rng, keyspace)
				shuffled := Snapshot{Pairs: slices.Clone(next.Pairs), Items: slices.Clone(next.Items)}
				rng.Shuffle(len(shuffled.Pairs), func(i, j int) {
					shuffled.Pairs[i], shuffled.Pairs[j] = shuffled.Pairs[j], shuffled.Pairs[i]
				})
				rng.Shuffle(len(shuffled.Items), func(i, j int) {
					shuffled.Items[i], shuffled.Items[j] = shuffled.Items[j], shuffled.Items[i]
				})
				idx.Update(src, shuffled)
				states[src] = next
			case op < 8: // incremental delta from the current state
				next := genSnapshot(rng, keyspace)
				applied, err := DiffSnapshots(states[src], next).Apply(states[src])
				if err != nil {
					t.Fatalf("seed %d step %d: Apply: %v", seed, step, err)
				}
				idx.Update(src, applied)
				states[src] = next
			case op < 9: // source removal replays the negative delta
				idx.remove(src)
				delete(states, src)
			default: // a conflicting delta is rejected before it reaches the index
				if _, ok := states[src]; !ok {
					continue
				}
				bogus := SnapshotDelta{DeleteItems: []blktrace.Extent{genExtent(keyspace + 100)}}
				if _, err := bogus.Apply(states[src]); !errors.Is(err, ErrDeltaConflict) {
					t.Fatalf("seed %d step %d: conflicting delta: Apply = %v, want ErrDeltaConflict", seed, step, err)
				}
			}
			reader.check(t, step, idx, states)
		}
		// Drain: removal all the way back to empty must converge on the
		// empty union, not a residue.
		for _, src := range sources {
			idx.remove(src)
			delete(states, src)
			requireUnionEqual(t, -1, idx, states)
		}
		if it, p := idx.Len(); it != 0 || p != 0 {
			t.Fatalf("seed %d: drained index still holds %d items / %d pairs", seed, it, p)
		}
	}
}

// FuzzMergeIndexApply drives the maintainer with a fuzz-chosen
// operation stream — updates, deltas, removals, exports fed again
// unchanged, and Syncs to a random live subset that re-feeds some
// sources' held exports and moves others on — and checks the
// differential identity plus the internal invariants after every
// operation.
func FuzzMergeIndexApply(f *testing.F) {
	f.Add(int64(1), uint8(40))
	f.Add(int64(2), uint8(10))
	f.Add(int64(987654), uint8(120))
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		idx := NewMergeIndex()
		// states holds what each live source was fed last: the export
		// itself, so that feeding it again is the same slices.
		states := make(map[string]Snapshot)
		sources := []string{"a", "b", "c", "d"}
		for step := 0; step < int(steps%80)+1; step++ {
			src := sources[rng.Intn(len(sources))]
			switch rng.Intn(6) {
			case 0:
				next := genSnapshot(rng, 12)
				idx.Update(src, next)
				states[src] = next
			case 1, 2:
				next := genSnapshot(rng, 12)
				applied, err := DiffSnapshots(states[src], next).Apply(states[src])
				if err != nil {
					t.Fatalf("step %d: Apply: %v", step, err)
				}
				idx.Update(src, applied)
				states[src] = applied
			case 3:
				if held, ok := states[src]; ok {
					idx.Update(src, held)
				}
			case 4:
				live := make(map[string]Snapshot)
				for _, id := range sources {
					switch rng.Intn(3) {
					case 0: // not live: Sync must take it out
					case 1: // live and unchanged, or new as empty
						live[id] = states[id]
					default:
						live[id] = genSnapshot(rng, 12)
					}
				}
				idx.Sync(func(yield func(string, Snapshot) bool) {
					for id, snap := range live {
						if !yield(id, snap) {
							return
						}
					}
				})
				states = live
			default:
				idx.remove(src)
				delete(states, src)
			}
			got, want := idx.Snapshot(), groundTruth(states)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: union diverged", step)
			}
			if err := idx.checkInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	})
}

// TestTopRulesEquivalence pins partial selection against the full
// sort: every bounded rule extraction that remains must equal
// Analyzer.Rules truncated to its limit — compareRules is total, so
// there is no tie ambiguity to hide behind. Snapshot.TopRules keeps
// every rule at limit <= 0; the State reads keep none.
func TestTopRulesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, err := NewAnalyzer(Config{ItemCapacity: 512, PairCapacity: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		n := 2 + rng.Intn(4)
		exts := make([]blktrace.Extent, 0, n)
		for len(exts) < n {
			exts = append(exts, genExtent(rng.Intn(48)))
		}
		a.Process(exts)
	}
	snap := a.Snapshot(0)
	var raw RawSnapshot
	a.CaptureSnapshot(&raw)
	idx := NewMergeIndex()
	idx.Update("only", snap)

	truncated := func(rules []Rule, limit int) []Rule {
		if limit <= 0 || limit >= len(rules) {
			return rules
		}
		return rules[:limit]
	}
	for _, minSupport := range []uint32{0, 2, 100} {
		for _, minConf := range []float64{0, 0.1, 0.3, 0.9} {
			full := a.Rules(minSupport, minConf)
			for _, limit := range []int{0, 1, 3, 10, 5000} { // 48 extents: < 2 300 rules
				want := truncated(full, limit)
				if got := snap.TopRules(minSupport, minConf, limit); !reflect.DeepEqual(got, want) {
					t.Fatalf("Snapshot.TopRules(%d,%v,%d): %d rules, want %d", minSupport, minConf, limit, len(got), len(want))
				}
				if limit <= 0 {
					want = nil
				}
				if got := raw.TopRules(minSupport, minConf, limit); !reflect.DeepEqual(got, want) {
					t.Fatalf("RawSnapshot.TopRules(%d,%v,%d): %d rules, want %d", minSupport, minConf, limit, len(got), len(want))
				}
				if got := idx.State(minSupport, minConf, limit, WantRules).Rules; !reflect.DeepEqual(got, want) {
					t.Fatalf("MergeIndex.State(%d,%v,%d).Rules: %d rules, want %d", minSupport, minConf, limit, len(got), len(want))
				}
			}
		}
	}
}

// TestFilterSupportSuffixCut pins the zero-copy support filter against
// the straightforward re-derivation.
func TestFilterSupportSuffixCut(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	snap := genSnapshot(rng, 48)
	for _, min := range []uint32{0, 1, 2, 10, 500, math.MaxUint32} {
		got := snap.FilterSupport(min)
		var want Snapshot
		for _, pc := range snap.Pairs {
			if pc.Count >= min {
				want.Pairs = append(want.Pairs, pc)
			}
		}
		for _, ic := range snap.Items {
			if ic.Count >= min {
				want.Items = append(want.Items, ic)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("FilterSupport(%d): %d/%d, want %d/%d", min, len(got.Pairs), len(got.Items), len(want.Pairs), len(want.Items))
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = snap.FilterSupport(0) }); allocs > 0 {
		t.Errorf("FilterSupport(0) allocates %.0f times, want 0", allocs)
	}
}

// TestMergeIndexSteadyStateAllocs pins the merged read's
// flat-allocation contract: a merged read on an
// unchanged-except-one-source fleet allocates a small constant — the
// two fresh output slices — regardless of how many sources or entries
// the union holds. It runs in `make alloc-guard`, without -race.
func TestMergeIndexSteadyStateAllocs(t *testing.T) {
	measure := func(nSources int, gen func(*rand.Rand) Snapshot) float64 {
		rng := rand.New(rand.NewSource(3))
		idx := NewMergeIndex()
		for i := 0; i < nSources; i++ {
			idx.Update(srcName(i), gen(rng))
		}
		idx.Snapshot()
		a := gen(rng)
		b := gen(rng)
		flip := false
		// Warm: both alternating states pass through once so the union
		// arenas and the walk's scratch reach their final sizes.
		for i := 0; i < 4; i++ {
			idx.Update("s0", a)
			idx.Snapshot()
			idx.Update("s0", b)
			idx.Snapshot()
		}
		return testing.AllocsPerRun(50, func() {
			if flip {
				idx.Update("s0", a)
			} else {
				idx.Update("s0", b)
			}
			flip = !flip
			idx.Snapshot()
		})
	}

	// A 32-key keyspace, so sources overlap heavily.
	keyspace32 := func(rng *rand.Rand) Snapshot { return genSnapshot(rng, 32) }
	small := measure(4, keyspace32)
	// Two exact-size output slices per materialize, plus incidental
	// runtime noise; the bound is deliberately loose — the invariant
	// under test is size-independence, asserted below.
	if small > 8 {
		t.Errorf("steady-state merged read allocates %.0f times, want <= 8", small)
	}
	for _, n := range []int{64, 256} {
		if large := measure(n, keyspace32); large > small {
			t.Errorf("allocs grew with fleet size: %0.f at 4 sources, %.0f at %d", small, large, n)
		}
	}

	// BenchmarkMergedReadUnderIngest's shape: 128 entries
	// per source at 8, 64 and 256 sources.
	benchShape := func(rng *rand.Rand) Snapshot { return benchSourceSnapshot(rng, 128) }
	var first float64
	for i, n := range []int{8, 64, 256} {
		got := measure(n, benchShape)
		if got > 2 {
			t.Errorf("benchmark shape, %d sources: merged read allocates %.1f times, want <= 2", n, got)
		}
		if i == 0 {
			first = got
		} else if got != first {
			t.Errorf("benchmark shape: %.1f allocs at %d sources, %.1f at 8", got, n, first)
		}
	}
}

// TestMergeIndexSyncSteadyStateAllocs pins Sync's steady state: with
// one of many live sources moving between two exports and the rest fed
// the exports they already hold, a Sync allocates nothing.
func TestMergeIndexSyncSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 64
	names := make([]string, n)
	snaps := make([]Snapshot, n)
	for i := range names {
		names[i], snaps[i] = srcName(i), benchSourceSnapshot(rng, 128)
	}
	a, b := snaps[0], benchSourceSnapshot(rng, 128)
	idx := NewMergeIndex()
	live := func(yield func(string, Snapshot) bool) {
		for i, name := range names {
			if !yield(name, snaps[i]) {
				return
			}
		}
	}
	flip := func() {
		if &snaps[0].Pairs[0] == &a.Pairs[0] {
			snaps[0] = b
		} else {
			snaps[0] = a
		}
		idx.Sync(live)
	}
	for i := 0; i < 4; i++ { // warm the arenas and the walk's scratch
		flip()
	}
	if allocs := testing.AllocsPerRun(50, flip); allocs != 0 {
		t.Errorf("Sync over %d sources, one of them moving, allocates %.1f times, want 0", n, allocs)
	}
	states := make(map[string]Snapshot, n)
	for i, name := range names {
		states[name] = snaps[i]
	}
	requireUnionEqual(t, -1, idx, states)
}

func srcName(i int) string {
	return string(rune('A'+i%26)) + string(rune('a'+i/26))
}
