package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"daccor/internal/blktrace"
)

// TestExportPatchDifferential walks partitioned analyzers through
// everything that happens to a device between two exports — ingest with
// evictions, demotions, captures taken for reads that export nothing,
// bursts that lap the discard rings, of every partition or of one alone,
// a restore from its own checkpoint, the capture sequence wrapping — and
// after every step holds the Exporter's result to the oracle: the
// partitions' own sorted exports merged by MergeSnapshots.
func TestExportPatchDifferential(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("P=%d/seed=%d", p, seed), func(t *testing.T) {
				cfg := Config{ItemCapacity: 96, PairCapacity: 256}
				parts := newPartitionSet(t, cfg, p)
				rng := rand.New(rand.NewSource(seed))
				txs := genTransactions(seed, 6000, 6)
				feed := func(n int) {
					for ; n > 0 && len(txs) > 0; n-- {
						processPartitioned(parts, txs[0])
						txs = txs[1:]
					}
				}
				g := make(RawGroup, p)
				for k := range g {
					g[k] = new(RawSnapshot)
				}
				capture := func() {
					for k, a := range parts {
						a.CaptureSnapshot(g[k])
					}
				}
				oracle := func() Snapshot {
					snaps := make([]Snapshot, len(g))
					for k, r := range g {
						snaps[k] = r.Snapshot(0)
					}
					return MergeSnapshots(snaps...)
				}
				var x Exporter
				var patched, rebuilt int
				export := func(label string, mayPatch bool) bool {
					t.Helper()
					capture()
					got, wasPatched := x.Export(g)
					if want := oracle(); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: export (patched=%v) differs from the oracle: %d/%d pairs/items, want %d/%d",
							label, wasPatched, len(got.Pairs), len(got.Items), len(want.Pairs), len(want.Items))
					}
					if wasPatched && !mayPatch {
						t.Fatalf("%s: export was patched across a break in the capture history", label)
					}
					if wasPatched {
						patched++
					} else {
						rebuilt++
					}
					return wasPatched
				}

				feed(400) // fill the tables
				export("first", false)
				if p > 1 {
					// A burst on extents one partition owns laps that
					// partition's rings alone: it is taken whole while the
					// others patch, and the export after it patches again.
					next := uint64(1 << 20)
					for k := range parts {
						feed(2)
						var tx []blktrace.Extent
						for i := 0; i < 100; i++ {
							tx = nil
							for len(tx) < 4 {
								e := blktrace.Extent{Block: next, Len: 8}
								next += 8
								if PartitionOf(e, p) == k {
									tx = append(tx, e)
								}
							}
							processPartitioned(parts, tx)
						}
						label := fmt.Sprintf("burst on partition %d", k)
						if export(label, false) {
							t.Fatalf("%s: export was patched although the partition's rings lapped", label)
						}
						processPartitioned(parts, tx) // counts move, nothing is discarded
						if !export(label+", then quiet", true) {
							t.Fatalf("%s, then quiet: export was not patched", label)
						}
					}
				}
				for step := 0; len(txs) > 0; step++ {
					label := fmt.Sprintf("step %d", step)
					mayPatch := true
					switch op := rng.Intn(20); {
					case op < 12: // a few transactions, as between two syncs
						feed(1 + rng.Intn(3))
					case op < 14: // reads that capture and export nothing
						for i := 0; i < 1+rng.Intn(3); i++ {
							feed(1)
							capture()
						}
					case op < 16: // demotions move no content
						a := parts[rng.Intn(p)]
						for _, e := range a.Pairs().Entries(0) {
							if rng.Intn(4) == 0 {
								a.Pairs().Demote(e.Key)
							}
						}
						for _, e := range a.Items().Entries(0) {
							if rng.Intn(4) == 0 {
								a.Items().Demote(e.Key)
							}
						}
					case op < 17: // more evictions than the rings hold
						feed(300)
					case op < 18: // the 32-bit capture sequence about to wrap
						for _, a := range parts {
							a.items.seq, a.pairs.seq = math.MaxUint32-1, math.MaxUint32-1
						}
					default: // restart from a checkpoint of the current state
						capture()
						var file bytes.Buffer
						if p == 1 {
							if _, err := g[0].WriteTo(&file); err != nil {
								t.Fatal(err)
							}
						} else if _, _, err := g.EncodeMerged(&file, cfg, g.Stats()); err != nil {
							t.Fatal(err)
						}
						loaded, err := LoadAnalyzer(&file)
						if err != nil {
							t.Fatal(err)
						}
						if parts, _, err = SplitAnalyzer(loaded, p); err != nil {
							t.Fatal(err)
						}
						mayPatch = false
					}
					export(label, mayPatch)
				}
				if patched == 0 || rebuilt < 3 {
					t.Fatalf("%d exports patched, %d rebuilt: the walk did not exercise both", patched, rebuilt)
				}
			})
		}
	}
}

// TestExportPatchSurvivesSequenceWrap crosses the wrap of the capture
// sequence with an Exporter that is not reset: the capture before the
// wrap still patches, the one after it rebuilds, and neither is wrong.
func TestExportPatchSurvivesSequenceWrap(t *testing.T) {
	a, err := NewAnalyzer(Config{ItemCapacity: 96, PairCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	txs := genTransactions(5, 600, 6)
	for _, tx := range txs[:400] {
		a.Process(tx)
	}
	// Every entry was stamped 1; jump to just short of the wrap as if
	// four billion captures had been taken, one with every entry stamped.
	for i := range a.items.arena {
		a.items.arena[i].stamp = math.MaxUint32 - 2
	}
	for i := range a.pairs.arena {
		a.pairs.arena[i].stamp = math.MaxUint32 - 2
	}
	a.items.seq, a.pairs.seq = math.MaxUint32-2, math.MaxUint32-2
	g := RawGroup{new(RawSnapshot)}
	var x Exporter
	var got []bool
	for i := 0; i < 6; i++ {
		a.Process(txs[400+i])
		a.CaptureSnapshot(g[0])
		snap, patched := x.Export(g)
		if want := g.Snapshot(0); !reflect.DeepEqual(snap, want) {
			t.Fatalf("export %d (patched=%v) differs from the sorted one", i, patched)
		}
		got = append(got, patched)
	}
	// Captures MaxUint32-2, -1 and MaxUint32, then the new run's 1, 2, 3.
	if want := []bool{false, true, true, false, true, true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("patched = %v across the wrap, want %v", got, want)
	}
}
