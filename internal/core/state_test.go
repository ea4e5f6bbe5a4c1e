package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"daccor/internal/blktrace"
)

// maxTop mirrors api.MaxTop, the largest ?top= the HTTP layer passes
// down (core cannot import api).
const maxTop = 10_000

// oracleRules is the rule extraction written the obvious way — a Go map
// over every item, every candidate materialized, one full sort — kept
// as the reference the bounded, map-free paths are compared against.
func oracleRules(full Snapshot, minSupport uint32, minConfidence float64) []Rule {
	items := make(map[blktrace.Extent]uint32, len(full.Items))
	for _, ic := range full.Items {
		items[ic.Extent] = ic.Count
	}
	var out []Rule
	for _, pc := range full.Pairs {
		if pc.Count < minSupport {
			continue
		}
		for _, dir := range [2][2]blktrace.Extent{{pc.Pair.A, pc.Pair.B}, {pc.Pair.B, pc.Pair.A}} {
			from, to := dir[0], dir[1]
			if from == to || items[from] == 0 {
				continue
			}
			conf := min(float64(pc.Count)/float64(items[from]), 1)
			if conf >= minConfidence {
				out = append(out, Rule{From: from, To: to, Support: pc.Count, Confidence: conf})
			}
		}
	}
	slices.SortFunc(out, compareRules)
	return out
}

// oracleState is State by way of the sorted export: what the read path
// served before bounded reads stopped sorting the table.
func oracleState(full Snapshot, minSupport uint32, minConfidence float64, top int) State {
	cut := full.FilterSupport(minSupport)
	st := State{TotalPairs: len(cut.Pairs), Pairs: cut.TopPairs(top)}
	if rules := oracleRules(full, minSupport, minConfidence); len(rules) > 0 && top > 0 {
		st.Rules = rules[:min(top, len(rules))]
	}
	return st
}

// checkState compares every State surface over one view against the
// oracle, across the support, confidence and top grid.
func checkState(t *testing.T, label string, full Snapshot, read func(minSupport uint32, minConfidence float64, top int, want Want) State) {
	t.Helper()
	for _, minSupport := range []uint32{0, 1, DefaultPromoteThreshold, 5} {
		for _, minConf := range []float64{0, 0.5, 1} {
			for _, top := range []int{0, 1, 64, maxTop} {
				want := oracleState(full, minSupport, minConf, top)
				if got := read(minSupport, minConf, top, WantPairs|WantRules); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: State(%d, %v, %d) = %d pairs of %d / %d rules, want %d of %d / %d",
						label, minSupport, minConf, top, len(got.Pairs), got.TotalPairs, len(got.Rules),
						len(want.Pairs), want.TotalPairs, len(want.Rules))
				}
				if got := read(minSupport, minConf, top, WantPairs); !reflect.DeepEqual(got, State{TotalPairs: want.TotalPairs, Pairs: want.Pairs}) {
					t.Fatalf("%s: State(%d, %v, %d, WantPairs) differs from the pairs of the full read", label, minSupport, minConf, top)
				}
				if got := read(minSupport, minConf, top, WantRules); !reflect.DeepEqual(got, State{Rules: want.Rules}) {
					t.Fatalf("%s: State(%d, %v, %d, WantRules) differs from the rules of the full read", label, minSupport, minConf, top)
				}
			}
		}
	}
}

// TestStateDifferential walks partitioned analyzers through random
// transactions with tables small enough to evict, and at every
// checkpoint holds the bounded one-pass read of the captures — and the
// same read cut from the sorted export and from merge indexes — to the
// sort-everything oracle. One index is rebuilt from the export each
// time; the other lives through the walk and is fed the group's
// Exporter export as one source, the way the engine feeds its merged
// view, and is only now and then asked for its sorted export, so its
// bounded read is checked with and without a materialized export
// beside it.
func TestStateDifferential(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("P=%d/seed=%d", p, seed), func(t *testing.T) {
				parts := newPartitionSet(t, Config{ItemCapacity: 96, PairCapacity: 256}, p)
				rng := rand.New(rand.NewSource(seed))
				txs := genTransactions(seed, 900, 6)
				g := make(RawGroup, p)
				for k := range g {
					g[k] = new(RawSnapshot)
				}
				var x Exporter
				fed := NewMergeIndex()
				var evictions uint64
				for i, tx := range txs {
					processPartitioned(parts, tx)
					if rng.Intn(200) != 0 && i != len(txs)-1 {
						continue
					}
					evictions = 0
					for k, a := range parts {
						a.CaptureSnapshot(g[k]) // reused: the item index must be rebuilt
						evictions += a.Stats().PairEvictions
					}
					exp, _ := x.Export(g)
					fed.Update("device", exp)
					full := g.Snapshot(0)
					label := fmt.Sprintf("step %d", i)
					checkState(t, label+" RawGroup", full, g.State)
					checkState(t, label+" Snapshot", full, full.State)
					idx := NewMergeIndex()
					idx.Update("only", full)
					checkState(t, label+" MergeIndex", full, idx.State)
					checkState(t, label+" export-fed MergeIndex", full, fed.State)
					if rng.Intn(3) == 0 || i == len(txs)-1 {
						if got := fed.Snapshot(); !reflect.DeepEqual(got, full) {
							t.Fatalf("%s: export-fed MergeIndex exports %d pairs / %d items, the group %d / %d",
								label, len(got.Pairs), len(got.Items), len(full.Pairs), len(full.Items))
						}
					}
					if err := fed.checkInvariants(); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				if evictions == 0 {
					t.Fatal("the walk never evicted a pair: capacities too large to exercise the claim")
				}
			})
		}
	}
}

// TestRuleSinkPrune pins the skip in addPair: with the sink full of
// confidence-1 rules, a pair whose count is below the worst kept
// support is dropped without looking its antecedents up, while a pair
// at exactly that support is still evaluated, because there the key
// order decides.
func TestRuleSinkPrune(t *testing.T) {
	ext := func(b uint64) blktrace.Extent { return blktrace.Extent{Block: b, Len: 1} }
	pair := func(a, b uint64) blktrace.Pair { return blktrace.Pair{A: ext(a), B: ext(b)} }
	const k = 4
	fill := func(lookups *int) *ruleSink {
		sink := newRuleSink(k)
		// Two pairs at support 9 whose antecedents were seen 9 times:
		// four rules, all confidence 1 — the sink is full.
		for _, p := range []blktrace.Pair{pair(50, 60), pair(70, 80)} {
			sink.addPair(p, 9, 0, func(blktrace.Extent) uint32 { *lookups++; return 9 })
		}
		return sink
	}
	cases := []struct {
		name        string
		p           blktrace.Pair
		count       uint32
		wantLookups int
		wantKept    bool
	}{
		{"below the worst support: pruned", pair(10, 20), 8, 0, false},
		{"equal support, earlier key: enters", pair(10, 20), 9, 2, true},
		{"equal support, later key: evaluated, loses on key", pair(90, 95), 9, 2, false},
		{"above the worst support: enters", pair(90, 95), 10, 2, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var lookups int
			sink := fill(&lookups)
			lookups = 0
			sink.addPair(c.p, c.count, 0, func(blktrace.Extent) uint32 { lookups++; return c.count })
			if lookups != c.wantLookups {
				t.Errorf("antecedent lookups = %d, want %d", lookups, c.wantLookups)
			}
			rules := sink.finish()
			if len(rules) != k {
				t.Fatalf("sink kept %d rules, want %d", len(rules), k)
			}
			kept := slices.ContainsFunc(rules, func(r Rule) bool { return r.From == c.p.A && r.To == c.p.B })
			if kept != c.wantKept {
				t.Errorf("rule %v→%v kept = %v, want %v (rules %+v)", c.p.A, c.p.B, kept, c.wantKept, rules)
			}
		})
	}

	// Below K confidence-1 rules the prune never fires: a weak rule in
	// the sink keeps every later pair eligible.
	var lookups int
	sink := newRuleSink(k)
	sink.addPair(pair(50, 60), 9, 0, func(blktrace.Extent) uint32 { return 9 })
	sink.addPair(pair(70, 80), 9, 0, func(blktrace.Extent) uint32 { return 18 }) // confidence 0.5
	sink.addPair(pair(10, 20), 1, 0, func(blktrace.Extent) uint32 { lookups++; return 1 })
	if lookups != 2 {
		t.Errorf("a sink whose worst rule is below confidence 1 skipped lookups (%d of 2 made)", lookups)
	}
}

// fullAnalyzer returns an analyzer whose tables are at capacity.
func fullAnalyzer(tb testing.TB, capacity int) *Analyzer {
	tb.Helper()
	a, err := NewAnalyzer(Config{ItemCapacity: capacity, PairCapacity: capacity})
	if err != nil {
		tb.Fatal(err)
	}
	for _, tx := range guardTransactions(4*capacity, 2*capacity, 3) {
		a.Process(tx)
	}
	if items, pairs := a.Items().Len(), a.Pairs().Len(); items < capacity/2 || pairs < capacity {
		tb.Fatalf("tables not full: %d items, %d pairs at capacity %d", items, pairs, capacity)
	}
	return a
}

// TestStateAllocsBoundedByTop pins the read's allocation profile: a
// warm State(top=64) allocates for its K-entry results and nothing
// that grows with the table — the same count on a 1 Ki and a 32 Ki
// synopsis.
func TestStateAllocsBoundedByTop(t *testing.T) {
	allocs := func(capacity int) float64 {
		g := RawGroup{new(RawSnapshot)}
		fullAnalyzer(t, capacity).CaptureSnapshot(g[0])
		read := func() { g.State(1, 0.5, 64, WantPairs|WantRules) }
		read() // warm: builds the capture's item index
		return testing.AllocsPerRun(10, read)
	}
	small, large := allocs(1<<10), allocs(32<<10)
	if small != large {
		t.Errorf("State(top=64) allocates %.0f times on a 1 Ki table and %.0f on a 32 Ki one, want equal", small, large)
	}
	if large > 8 {
		t.Errorf("State(top=64) allocates %.0f times per read, want a handful (result slices and sinks)", large)
	}
}

// TestMergedStateAllocsBoundedByTop is TestStateAllocsBoundedByTop for
// the merged view: a warm MergeIndex.State(top=64) allocates for its
// K-entry results and nothing that grows with the union.
func TestMergedStateAllocsBoundedByTop(t *testing.T) {
	allocs := func(entries int) float64 {
		idx := NewMergeIndex()
		idx.Update("a", benchSourceSnapshot(rand.New(rand.NewSource(1)), entries/2))
		idx.Update("b", benchSourceSnapshot(rand.New(rand.NewSource(2)), entries/2))
		read := func() { idx.State(1, 0.5, 64, WantPairs|WantRules) }
		read()
		return testing.AllocsPerRun(10, read)
	}
	small, large := allocs(2<<10), allocs(128<<10)
	if small != large {
		t.Errorf("State(top=64) allocates %.0f times on a 2 Ki union and %.0f on a 128 Ki one, want equal", small, large)
	}
	if large > 8 {
		t.Errorf("State(top=64) allocates %.0f times per read, want a handful (result slices and sinks)", large)
	}
}
