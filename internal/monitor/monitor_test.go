package monitor

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"daccor/internal/blktrace"
)

func ev(t int64, block uint64) blktrace.Event {
	return blktrace.Event{Time: t, PID: 1, Op: blktrace.OpRead,
		Extent: blktrace.Extent{Block: block, Len: 1}}
}

func collect(t *testing.T, cfg Config, events []blktrace.Event) ([]Transaction, Stats) {
	t.Helper()
	var out []Transaction
	m, err := New(cfg, func(tx Transaction) { out = append(out, tx.Clone()) })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, e := range events {
		if err := m.HandleEvent(e); err != nil {
			t.Fatalf("HandleEvent: %v", err)
		}
	}
	m.Flush()
	return out, m.Stats()
}

func TestConfigValidation(t *testing.T) {
	sink := func(Transaction) {}
	if _, err := New(Config{}, sink); err == nil {
		t.Error("want error for missing window policy")
	}
	if _, err := New(Config{Window: StaticWindow(time.Millisecond), MaxRequests: -2}, sink); err == nil {
		t.Error("want error for negative MaxRequests")
	}
	if _, err := New(Config{Window: StaticWindow(time.Millisecond)}, nil); err == nil {
		t.Error("want error for nil sink")
	}
}

func TestWindowSplitsTransactions(t *testing.T) {
	// 1 ms window; events at 0, 0.5ms, 0.9ms belong together; 2.5ms starts anew.
	txs, st := collect(t, Config{Window: StaticWindow(time.Millisecond)}, []blktrace.Event{
		ev(0, 10), ev(500_000, 20), ev(900_000, 30), ev(2_500_000, 40),
	})
	if len(txs) != 2 {
		t.Fatalf("transactions = %d, want 2", len(txs))
	}
	if len(txs[0].Extents) != 3 || len(txs[1].Extents) != 1 {
		t.Errorf("sizes = %d, %d; want 3, 1", len(txs[0].Extents), len(txs[1].Extents))
	}
	if txs[0].Start != 0 || txs[0].End != 900_000 {
		t.Errorf("txs[0] span = [%d, %d]", txs[0].Start, txs[0].End)
	}
	if st.Transactions != 2 || st.Events != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWindowMeasuredFromTransactionStart(t *testing.T) {
	// Events 0.6 ms apart with a 1 ms window: the window anchors at the
	// transaction's first event, so the third event (t=1.2ms) exceeds it
	// even though each consecutive gap is within the window.
	txs, _ := collect(t, Config{Window: StaticWindow(time.Millisecond)}, []blktrace.Event{
		ev(0, 1), ev(600_000, 2), ev(1_200_000, 3),
	})
	if len(txs) != 2 {
		t.Fatalf("transactions = %d, want 2 (window from start)", len(txs))
	}
}

func TestSizeCapSplits(t *testing.T) {
	events := make([]blktrace.Event, 20)
	for i := range events {
		events[i] = ev(int64(i), uint64(i)) // all within any window
	}
	txs, st := collect(t, Config{Window: StaticWindow(time.Second), MaxRequests: 8}, events)
	if len(txs) != 3 {
		t.Fatalf("transactions = %d, want 3 (8+8+4)", len(txs))
	}
	if len(txs[0].Extents) != 8 || len(txs[1].Extents) != 8 || len(txs[2].Extents) != 4 {
		t.Errorf("sizes = %d, %d, %d", len(txs[0].Extents), len(txs[1].Extents), len(txs[2].Extents))
	}
	if st.CapSplits != 2 {
		t.Errorf("CapSplits = %d, want 2", st.CapSplits)
	}
}

func TestDefaultCapIsEight(t *testing.T) {
	events := make([]blktrace.Event, 9)
	for i := range events {
		events[i] = ev(int64(i), uint64(i))
	}
	txs, _ := collect(t, Config{Window: StaticWindow(time.Second)}, events)
	if len(txs) != 2 || len(txs[0].Extents) != DefaultMaxRequests {
		t.Errorf("default cap not applied: %d txs, first size %d", len(txs), len(txs[0].Extents))
	}
}

func TestDeduplication(t *testing.T) {
	events := []blktrace.Event{ev(0, 10), ev(1, 10), ev(2, 20), ev(3, 10)}
	txs, st := collect(t, Config{Window: StaticWindow(time.Second)}, events)
	if len(txs) != 1 {
		t.Fatalf("transactions = %d, want 1", len(txs))
	}
	if len(txs[0].Extents) != 2 {
		t.Errorf("extents = %v, want 2 unique", txs[0].Extents)
	}
	if txs[0].Requests != 4 {
		t.Errorf("Requests = %d, want 4 raw", txs[0].Requests)
	}
	if st.Duplicates != 2 {
		t.Errorf("Duplicates = %d, want 2", st.Duplicates)
	}
}

func TestKeepDuplicates(t *testing.T) {
	events := []blktrace.Event{ev(0, 10), ev(1, 10)}
	txs, st := collect(t, Config{Window: StaticWindow(time.Second), KeepDuplicates: true}, events)
	if len(txs[0].Extents) != 2 {
		t.Errorf("extents = %d, want duplicates kept", len(txs[0].Extents))
	}
	if st.Duplicates != 0 {
		t.Errorf("Duplicates = %d, want 0", st.Duplicates)
	}
}

func TestDedupResetsAcrossTransactions(t *testing.T) {
	events := []blktrace.Event{ev(0, 10), ev(10_000_000, 10)} // 10 ms apart, 1 ms window
	txs, _ := collect(t, Config{Window: StaticWindow(time.Millisecond)}, events)
	if len(txs) != 2 || len(txs[0].Extents) != 1 || len(txs[1].Extents) != 1 {
		t.Errorf("dedup state leaked across transactions: %+v", txs)
	}
}

func TestPIDFilter(t *testing.T) {
	mk := func(t int64, pid uint32, block uint64) blktrace.Event {
		e := ev(t, block)
		e.PID = pid
		return e
	}
	events := []blktrace.Event{mk(0, 1, 10), mk(1, 2, 20), mk(2, 3, 30), mk(3, 1, 40)}
	txs, st := collect(t, Config{
		Window:     StaticWindow(time.Second),
		FilterPIDs: []uint32{1, 3},
	}, events)
	if len(txs) != 1 || len(txs[0].Extents) != 3 {
		t.Fatalf("filtered result wrong: %+v", txs)
	}
	if st.Filtered != 1 {
		t.Errorf("Filtered = %d, want 1", st.Filtered)
	}
}

func TestOutOfOrderClamped(t *testing.T) {
	events := []blktrace.Event{ev(1000, 1), ev(500, 2), ev(1500, 3)}
	txs, st := collect(t, Config{Window: StaticWindow(time.Second)}, events)
	if st.OutOfOrder != 1 {
		t.Errorf("OutOfOrder = %d, want 1", st.OutOfOrder)
	}
	if len(txs) != 1 || len(txs[0].Extents) != 3 {
		t.Errorf("clamped event should stay in transaction: %+v", txs)
	}
}

func TestHandleEventRejectsInvalid(t *testing.T) {
	m, err := New(Config{Window: StaticWindow(time.Second)}, func(Transaction) {})
	if err != nil {
		t.Fatal(err)
	}
	bad := blktrace.Event{Time: 0, Op: blktrace.OpRead,
		Extent: blktrace.Extent{Block: 1, Len: 0}}
	if err := m.HandleEvent(bad); err == nil {
		t.Error("want validation error")
	}
}

func TestFlushEmptyIsNoop(t *testing.T) {
	calls := 0
	m, err := New(Config{Window: StaticWindow(time.Second)}, func(Transaction) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	m.Flush()
	m.Flush()
	if calls != 0 {
		t.Errorf("Flush on empty emitted %d transactions", calls)
	}
}

func TestCollectMatchesManualRun(t *testing.T) {
	tr := &blktrace.Trace{}
	for i := 0; i < 100; i++ {
		tr.Append(ev(int64(i)*200_000, uint64(i%7)))
	}
	cfg := Config{Window: StaticWindow(time.Millisecond)}
	got, err := Collect(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := collect(t, cfg, tr.Events)
	if len(got) != len(want) {
		t.Fatalf("Collect = %d txs, manual = %d", len(got), len(want))
	}
}

// Property: every transaction respects the cap, extents are unique, the
// span never exceeds the window, and no accepted event is lost.
func TestMonitorInvariantsQuick(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		window := time.Duration(1+rng.Intn(5)) * time.Millisecond
		cap8 := 1 + rng.Intn(10)
		var events []blktrace.Event
		now := int64(0)
		for i := 0; i < int(n); i++ {
			now += rng.Int63n(2_000_000) // 0–2 ms gaps
			events = append(events, ev(now, uint64(rng.Intn(30))))
		}
		var txs []Transaction
		m, err := New(Config{Window: StaticWindow(window), MaxRequests: cap8},
			func(tx Transaction) { txs = append(txs, tx.Clone()) })
		if err != nil {
			return false
		}
		for _, e := range events {
			if m.HandleEvent(e) != nil {
				return false
			}
		}
		m.Flush()
		totalRequests := 0
		for _, tx := range txs {
			totalRequests += tx.Requests
			if tx.Requests > cap8 || len(tx.Extents) > tx.Requests {
				return false
			}
			if tx.End-tx.Start > int64(window) {
				return false
			}
			seen := map[blktrace.Extent]struct{}{}
			for _, e := range tx.Extents {
				if _, dup := seen[e]; dup {
					return false
				}
				seen[e] = struct{}{}
			}
		}
		return totalRequests == len(events)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStaticWindowPolicy(t *testing.T) {
	w := StaticWindow(5 * time.Millisecond)
	w.ObserveLatency(time.Hour) // must not change anything
	if w.Window() != 5*time.Millisecond {
		t.Errorf("Window = %v", w.Window())
	}
}

func TestDynamicWindowValidation(t *testing.T) {
	if _, err := NewDynamicWindow(0, time.Second); err == nil {
		t.Error("want error for zero min")
	}
	if _, err := NewDynamicWindow(time.Second, time.Millisecond); err == nil {
		t.Error("want error for max < min")
	}
}

func TestDynamicWindowTracksLatency(t *testing.T) {
	w, err := NewDynamicWindow(10*time.Microsecond, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if w.Window() != 10*time.Microsecond {
		t.Errorf("pre-sample window = %v, want min", w.Window())
	}
	w.ObserveLatency(time.Millisecond)
	if got := w.Window(); got != 2*time.Millisecond {
		t.Errorf("window after first sample = %v, want 2 ms (2×avg)", got)
	}
	// Converge toward a slower device: window should grow.
	for i := 0; i < 200; i++ {
		w.ObserveLatency(10 * time.Millisecond)
	}
	if got := w.Window(); got < 18*time.Millisecond || got > 20*time.Millisecond {
		t.Errorf("converged window = %v, want ~20 ms", got)
	}
	if got := w.AverageLatency(); got < 9*time.Millisecond {
		t.Errorf("AverageLatency = %v, want ~10 ms", got)
	}
}

func TestDynamicWindowClamps(t *testing.T) {
	w, err := NewDynamicWindow(time.Millisecond, 4*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	w.ObserveLatency(100 * time.Nanosecond)
	if w.Window() != time.Millisecond {
		t.Errorf("window = %v, want clamped to min", w.Window())
	}
	for i := 0; i < 100; i++ {
		w.ObserveLatency(time.Second)
	}
	if w.Window() != 4*time.Millisecond {
		t.Errorf("window = %v, want clamped to max", w.Window())
	}
	w.ObserveLatency(0)  // ignored
	w.ObserveLatency(-5) // ignored
	if w.Window() != 4*time.Millisecond {
		t.Error("non-positive latencies must be ignored")
	}
}

func TestMonitorObserveLatencyDrivesWindow(t *testing.T) {
	w, err := NewDynamicWindow(time.Microsecond, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Window: w}, func(Transaction) {})
	if err != nil {
		t.Fatal(err)
	}
	m.ObserveLatency(int64(50 * time.Millisecond))
	if w.Window() != 100*time.Millisecond {
		t.Errorf("window = %v after ObserveLatency", w.Window())
	}
}

func TestTransactionOps(t *testing.T) {
	mk := func(tm int64, op blktrace.Op, block uint64) blktrace.Event {
		return blktrace.Event{Time: tm, PID: 1, Op: op,
			Extent: blktrace.Extent{Block: block, Len: 1}}
	}
	events := []blktrace.Event{
		mk(0, blktrace.OpRead, 10),
		mk(1, blktrace.OpWrite, 20),
		mk(2, blktrace.OpRead, 30),
		mk(3, blktrace.OpWrite, 10), // duplicate extent, different op: first wins
	}
	txs, _ := collect(t, Config{Window: StaticWindow(time.Second)}, events)
	if len(txs) != 1 {
		t.Fatalf("transactions = %d", len(txs))
	}
	tx := txs[0]
	if len(tx.Ops) != len(tx.Extents) {
		t.Fatalf("Ops len %d != Extents len %d", len(tx.Ops), len(tx.Extents))
	}
	reads := tx.ExtentsFor(blktrace.OpRead)
	writes := tx.ExtentsFor(blktrace.OpWrite)
	if len(reads) != 2 || len(writes) != 1 {
		t.Fatalf("reads=%d writes=%d, want 2/1", len(reads), len(writes))
	}
	if reads[0].Block != 10 || reads[1].Block != 30 || writes[0].Block != 20 {
		t.Errorf("op filtering wrong: reads=%v writes=%v", reads, writes)
	}
}
