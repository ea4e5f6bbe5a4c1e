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

func BenchmarkAnalyzerProcess(b *testing.B) {
	a, err := NewAnalyzer(Config{ItemCapacity: 4096, PairCapacity: 4096})
	if err != nil {
		b.Fatal(err)
	}
	txs := guardTransactions(2048, 8192, 1)
	for i := 0; i < 4*len(txs); i++ { // warm both tables and the link slab
		a.Process(txs[i%len(txs)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Process(txs[i%len(txs)])
	}
}
