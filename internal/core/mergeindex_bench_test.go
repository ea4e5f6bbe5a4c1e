package core

import (
	"fmt"
	"math/rand"
	"testing"

	"daccor/internal/blktrace"
)

// Fan-in read-path benchmarks. The scenario is the steady state every
// fleet deployment converges to — N mirrored devices, one of which
// changed since the last read — measured three ways, each named after
// what it times: update-snapshot feeds the one source to the
// MergeIndex and sorts the union into an export (MergeIndex.Snapshot,
// which no served read asks for); update-state is the same feed
// followed by the bounded read every /v1 merged route makes, which
// builds no export; mergesnapshots re-merges every mirror from scratch
// (core.MergeSnapshots, the oracle). The index reads' allocs/op must
// not scale with the fleet's entry count
// (TestMergeIndexSteadyStateAllocs pins it on this shape).

// benchSourceSnapshot builds a deterministic per-device export over a
// keyspace shared across devices (so the union overlaps, the
// expensive case for the from-scratch merge).
func benchSourceSnapshot(rng *rand.Rand, entries int) Snapshot {
	items := make(map[blktrace.Extent]ItemCount, entries)
	pairs := make(map[blktrace.Pair]PairCount, entries)
	for len(items) < entries {
		e := blktrace.Extent{Block: uint64(rng.Intn(4*entries)) * 8, Len: 8}
		items[e] = ItemCount{Extent: e, Count: 1 + uint32(rng.Intn(10_000)), Tier: Tier1}
	}
	for len(pairs) < entries {
		a := blktrace.Extent{Block: uint64(rng.Intn(4*entries)) * 8, Len: 8}
		b := blktrace.Extent{Block: uint64(rng.Intn(4*entries)) * 8, Len: 8}
		if a == b {
			continue
		}
		p := blktrace.MakePair(a, b)
		pairs[p] = PairCount{Pair: p, Count: 1 + uint32(rng.Intn(10_000)), Tier: Tier1}
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

func BenchmarkMergedReadUnderIngest(b *testing.B) {
	const entriesPerDevice = 128
	for _, devices := range []int{8, 64, 256} {
		rng := rand.New(rand.NewSource(42))
		snaps := make([]Snapshot, devices)
		names := make([]string, devices)
		for i := range snaps {
			snaps[i] = benchSourceSnapshot(rng, entriesPerDevice)
			names[i] = fmt.Sprintf("dev%03d", i)
		}
		// The dirty device alternates between two states, so every
		// iteration really changes entries and no side caches the
		// answer away.
		dirtyA, dirtyB := snaps[0], benchSourceSnapshot(rng, entriesPerDevice)

		b.Run(fmt.Sprintf("devices-%d/update-snapshot", devices), func(b *testing.B) {
			idx := NewMergeIndex()
			for i, s := range snaps {
				idx.Update(names[i], s)
			}
			idx.Snapshot()
			for i := 0; i < 4; i++ { // warm both alternating states
				idx.Update(names[0], dirtyB)
				idx.Snapshot()
				idx.Update(names[0], dirtyA)
				idx.Snapshot()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					idx.Update(names[0], dirtyB)
				} else {
					idx.Update(names[0], dirtyA)
				}
				idx.Snapshot()
			}
		})

		// What /v1/rules?top=64 asks of the same fleet: no sorted
		// export at all, one pass over the union per dirtying.
		b.Run(fmt.Sprintf("devices-%d/update-state", devices), func(b *testing.B) {
			idx := NewMergeIndex()
			for i, s := range snaps {
				idx.Update(names[i], s)
			}
			idx.Update(names[0], dirtyB) // warm both alternating states
			idx.Update(names[0], dirtyA)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					idx.Update(names[0], dirtyB)
				} else {
					idx.Update(names[0], dirtyA)
				}
				idx.State(1, 0.5, 64, WantPairs|WantRules)
			}
		})

		b.Run(fmt.Sprintf("devices-%d/mergesnapshots", devices), func(b *testing.B) {
			cur := make([]Snapshot, devices)
			copy(cur, snaps)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					cur[0] = dirtyB
				} else {
					cur[0] = dirtyA
				}
				MergeSnapshots(cur...)
			}
		})
	}
}

func BenchmarkRulesTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	idx := NewMergeIndex()
	for i := 0; i < 32; i++ {
		idx.Update(fmt.Sprintf("dev%02d", i), benchSourceSnapshot(rng, 256))
	}
	merged := idx.Snapshot()
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			merged.TopRules(2, 0.01, 0)
		}
	})
	b.Run("top-10", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			merged.TopRules(2, 0.01, 10)
		}
	})
	b.Run("index-top-10", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			idx.State(2, 0.01, 10, WantRules)
		}
	})
}

// BenchmarkDeviceState times the bounded device read behind a snapshot
// page, a rules page and a watch delivery on full 32 Ki tables at
// top=64. dirty is the first read of an epoch — the capture itself,
// the item index rebuilt over it, then the scan; clean is every later
// read of that epoch, the scan alone. Support 1 keeps every pair a
// candidate (the rule sink's prune carries the scan); support 5 cuts
// most before they reach a sink.
func BenchmarkDeviceState(b *testing.B) {
	a := fullAnalyzer(b, 32<<10)
	g := RawGroup{new(RawSnapshot)}
	a.CaptureSnapshot(g[0])
	for _, support := range []uint32{1, 5} {
		b.Run(fmt.Sprintf("support-%d/dirty", support), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.CaptureSnapshot(g[0])
				g.State(support, 0.5, 64, WantPairs|WantRules)
			}
		})
		b.Run(fmt.Sprintf("support-%d/clean", support), func(b *testing.B) {
			g.State(support, 0.5, 64, WantPairs|WantRules)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.State(support, 0.5, 64, WantPairs|WantRules)
			}
		})
	}
}

// syncDirtying is the work between two exports of a busy device in the
// sync benchmarks and guards: transactions adding up to 256 events.
func syncDirtying(seed int64, keyspace int) [][]blktrace.Extent {
	var txs [][]blktrace.Extent
	for events := 0; events < 256; {
		tx := guardTransactions(1, keyspace, seed+int64(len(txs)))[0]
		txs = append(txs, tx)
		events += len(tx)
	}
	return txs
}

// BenchmarkSyncDirtyDevice times what one dirty device costs a sync
// round on full 32 Ki tables after 256 more events: export (the new
// sorted export, patched forward from the previous one), diff (against
// the export the aggregator last acked) and apply (the aggregator
// patching its mirror). All three walk the table once and otherwise
// work on the few hundred entries that moved.
func BenchmarkSyncDirtyDevice(b *testing.B) {
	const capacity = 32 << 10
	a := fullAnalyzer(b, capacity)
	g := RawGroup{new(RawSnapshot)}
	var x Exporter
	a.CaptureSnapshot(g[0])
	prev, _ := x.Export(g)
	var cur Snapshot
	round := int64(0)
	// advance dirties the device and moves prev/cur one export on.
	advance := func() {
		round++
		for _, tx := range syncDirtying(1000*round, 2*capacity) {
			a.Process(tx)
		}
		a.CaptureSnapshot(g[0])
	}
	b.Run("export", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			advance()
			b.StartTimer()
			var patched bool
			if cur, patched = x.Export(g); !patched {
				b.Fatal("export fell back to a full sort")
			}
		}
	})
	// The same device split over two partitions, as the engine runs it
	// with two partition workers: one patch pass over both captures.
	b.Run("export-P2", func(b *testing.B) {
		parts, _, err := SplitAnalyzer(fullAnalyzer(b, capacity), 2)
		if err != nil {
			b.Fatal(err)
		}
		g2 := RawGroup{new(RawSnapshot), new(RawSnapshot)}
		capture := func() {
			for k, p := range parts {
				p.CaptureSnapshot(g2[k])
			}
		}
		var x2 Exporter
		capture()
		x2.Export(g2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			round++
			for _, tx := range syncDirtying(1000*round, 2*capacity) {
				processPartitioned(parts, tx)
			}
			capture()
			b.StartTimer()
			if _, patched := x2.Export(g2); !patched {
				b.Fatal("export fell back to a full sort")
			}
		}
	})
	var d SnapshotDelta
	b.Run("diff", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			advance()
			prev, cur = cur, Snapshot{}
			cur, _ = x.Export(g)
			b.StartTimer()
			d = DiffSnapshots(prev, cur)
		}
	})
	b.Run("apply", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			advance()
			prev = cur
			cur, _ = x.Export(g)
			d = DiffSnapshots(prev, cur)
			b.StartTimer()
			if _, err := d.Apply(prev); err != nil {
				b.Fatal(err)
			}
		}
	})
}
