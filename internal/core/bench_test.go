package core

import (
	"testing"

	"daccor/internal/blktrace"
)

// Hot-path microbenchmarks for the synopsis (`make bench-hot`):
// steady-state ns/op and — enforced separately by the alloc_guard
// tests — zero allocs/op once the entry arenas are warm.

func BenchmarkTableTouch(b *testing.B) {
	run := func(b *testing.B, keyspace int) {
		tbl, err := NewTable[blktrace.Extent](TableConfig{Capacity1: 4096, Capacity2: 4096}, nil)
		if err != nil {
			b.Fatal(err)
		}
		keys := make([]blktrace.Extent, keyspace)
		for i := range keys {
			keys[i] = blktrace.Extent{Block: uint64(i) * 8, Len: 8}
		}
		for i := 0; i < 4*len(keys); i++ { // warm: fill arena, settle map
			tbl.Touch(keys[i%len(keys)])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tbl.Touch(keys[i%len(keys)])
		}
	}
	// churn: keyspace 3x capacity — every touch misses, evicts, and
	// recycles a slot through the free list.
	b.Run("churn", func(b *testing.B) { run(b, 3*8192) })
	// hit: keyspace within capacity — every touch is a hit moving an
	// entry to its tier's MRU position.
	b.Run("hit", func(b *testing.B) { run(b, 4096) })
}

// BenchmarkAnalyzerProcess runs streams of 2-6-extent transactions
// through an analyzer with C = 4096 for both tables and reports the
// item evictions per transaction. "item-churn" draws its extents from
// 8 Ki blocks at 8 lengths, far more than the item table holds, so
// items are evicted (about 3.5 a transaction) while pairs containing
// them live on: their membership lists move to the orphan map and back
// on the next admission, and every eviction demotes pairs. "resident"
// draws from 512 blocks, which the item table holds once warm, so no
// item is evicted and only pairs churn — the regime of a device whose
// working set fits its synopsis.
func BenchmarkAnalyzerProcess(b *testing.B) {
	run := func(b *testing.B, keyspace int) {
		a, err := NewAnalyzer(Config{ItemCapacity: 4096, PairCapacity: 4096})
		if err != nil {
			b.Fatal(err)
		}
		txs := guardTransactions(2048, keyspace, 1)
		for i := 0; i < 4*len(txs); i++ { // warm both tables and the link slab
			a.Process(txs[i%len(txs)])
		}
		before := a.Stats().ItemEvictions
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Process(txs[i%len(txs)])
		}
		b.ReportMetric(float64(a.Stats().ItemEvictions-before)/float64(b.N), "item-evictions/tx")
	}
	b.Run("item-churn", func(b *testing.B) { run(b, 8192) })
	b.Run("resident", func(b *testing.B) { run(b, 512) })
}
