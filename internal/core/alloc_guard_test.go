package core

import (
	"math/rand"
	"slices"
	"testing"

	"daccor/internal/blktrace"
)

// The paper's premise is that the synopsis is cheap enough to run
// inline with the I/O path. These guard tests pin the memory half of
// that claim: after warm-up (arena slab filled, index map at its final
// size, scratch buffers grown), the per-event path must not allocate.
// They run under plain `go test ./...`, so an allocation regression in
// the hot path fails tier-1, not just a benchmark eyeball.
//
// testing.AllocsPerRun floors its average, so a failure here means at
// least one allocation per run (thousands of operations) — genuine
// steady-state allocation, not incidental runtime noise.

// guardOps is the number of hot-path operations per AllocsPerRun run —
// large enough that amortized growth of any leftover buffer would
// surface as >= 1 alloc per run.
const guardOps = 4096

func TestTableTouchZeroAllocSteadyState(t *testing.T) {
	tbl, err := NewTable[blktrace.Extent](TableConfig{Capacity1: 512, Capacity2: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Keyspace 3x total capacity: steady eviction + free-list reuse
	// churn, with enough re-touches to exercise promotion.
	keys := make([]blktrace.Extent, 3*1024)
	for i := range keys {
		keys[i] = blktrace.Extent{Block: uint64(i) * 8, Len: 8}
	}
	var n int
	work := func() {
		for i := 0; i < guardOps; i++ {
			tbl.Touch(keys[n%len(keys)])
			tbl.Touch(keys[n%len(keys)]) // second sighting: hit/promote path
			n++
		}
	}
	for i := 0; i < 4; i++ { // warm up: fill the arena, settle the map
		work()
	}
	if avg := testing.AllocsPerRun(20, work); avg > 0 {
		t.Errorf("Table.Touch allocates %.0f times per %d-op run at steady state, want 0", avg, 2*guardOps)
	}
	if err := tbl.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTableDemoteRemoveZeroAllocSteadyState(t *testing.T) {
	tbl, err := NewTable[uint64](TableConfig{Capacity1: 256, Capacity2: 256}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var n uint64
	work := func() {
		for i := 0; i < guardOps; i++ {
			k := n % 1024
			tbl.Touch(k)
			tbl.Demote(k)
			if n%7 == 0 {
				tbl.Remove(k)
			}
			n++
		}
	}
	for i := 0; i < 4; i++ {
		work()
	}
	if avg := testing.AllocsPerRun(20, work); avg > 0 {
		t.Errorf("Touch/Demote/Remove allocate %.0f times per run at steady state, want 0", avg)
	}
}

// guardTransactions synthesizes a deterministic transaction mix with
// enough distinct extents to keep both tables churning (inserts,
// evictions, cascaded pair demotions) at steady state.
func guardTransactions(n, keyspace int, seed int64) [][]blktrace.Extent {
	rng := rand.New(rand.NewSource(seed))
	txs := make([][]blktrace.Extent, n)
	for i := range txs {
		size := 2 + rng.Intn(5)
		seen := make(map[uint64]bool, size)
		tx := make([]blktrace.Extent, 0, size)
		for len(tx) < size {
			b := uint64(rng.Intn(keyspace)) * 8
			if seen[b] {
				continue
			}
			seen[b] = true
			tx = append(tx, blktrace.Extent{Block: b, Len: 1 + uint32(rng.Intn(8))})
		}
		txs[i] = tx
	}
	return txs
}

func TestAnalyzerProcessZeroAllocSteadyState(t *testing.T) {
	a, err := NewAnalyzer(Config{ItemCapacity: 512, PairCapacity: 512})
	if err != nil {
		t.Fatal(err)
	}
	txs := guardTransactions(512, 2048, 7)
	var n int
	work := func() {
		for i := 0; i < len(txs); i++ {
			a.Process(txs[n%len(txs)])
			n++
		}
	}
	for i := 0; i < 8; i++ { // warm up both arenas, link slab, scratch buffers
		work()
	}
	if avg := testing.AllocsPerRun(20, work); avg > 0 {
		t.Errorf("Analyzer.Process allocates %.0f times per %d-transaction run at steady state, want 0",
			avg, len(txs))
	}
	if err := a.Items().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := a.Pairs().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckMembershipInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDiffAllocsBoundedByDelta pins what the merge-walk diff buys
// besides time: it allocates for the entries that moved and not for the
// tables they moved in. The same eighty changes diffed on 1 Ki and on
// 32 Ki exports cost the same number of allocations; the map-based diff
// built four maps over both exports first.
func TestDiffAllocsBoundedByDelta(t *testing.T) {
	allocs := func(entries int) float64 {
		old := benchSourceSnapshot(rand.New(rand.NewSource(9)), entries)
		next := Snapshot{Pairs: slices.Clone(old.Pairs), Items: slices.Clone(old.Items)}
		const moved = 80 // per table: 60 counters grow, 20 keys give way to new ones
		for i := 0; i < moved; i++ {
			at := i * (entries / moved)
			if i < 60 {
				next.Pairs[at].Count++
				next.Items[at].Count++
				continue
			}
			fresh := blktrace.Extent{Block: uint64(8*entries+i) * 8, Len: 8}
			next.Pairs[at].Pair = blktrace.Pair{A: fresh, B: fresh}
			next.Items[at].Extent = fresh
		}
		next.sort()
		d := DiffSnapshots(old, next)
		if len(d.UpsertPairs) != 80 || len(d.DeletePairs) != 20 || len(d.UpsertItems) != 80 || len(d.DeleteItems) != 20 {
			t.Fatalf("%d entries: delta is %d+%d pairs, %d+%d items, want 80+20 each", entries,
				len(d.UpsertPairs), len(d.DeletePairs), len(d.UpsertItems), len(d.DeleteItems))
		}
		return testing.AllocsPerRun(10, func() { DiffSnapshots(old, next) })
	}
	small, large := allocs(1<<10), allocs(32<<10)
	if small != large {
		t.Errorf("DiffSnapshots of the same delta allocates %.0f times on 1 Ki tables and %.0f on 32 Ki: it must not depend on the table size", small, large)
	}
}
