package monitor

import (
	"testing"
	"time"

	"daccor/internal/blktrace"
)

// TestMonitorZeroAllocSteadyState pins the monitor's half of the
// router's memory contract: once its transaction buffer has grown to
// the cap, grouping, deduplicating and emitting allocate nothing. The
// stream cuts transactions both by the window and by the cap, and
// repeats extents inside a transaction, so every branch of
// HandleEvent and emit runs. testing.AllocsPerRun floors its average,
// so a failure is at least one allocation per 4 096 events.
func TestMonitorZeroAllocSteadyState(t *testing.T) {
	for _, keep := range []bool{false, true} {
		name := "dedup"
		if keep {
			name = "keep-duplicates"
		}
		t.Run(name, func(t *testing.T) {
			m, err := New(Config{Window: StaticWindow(100 * time.Microsecond), KeepDuplicates: keep},
				func(Transaction) {})
			if err != nil {
				t.Fatal(err)
			}
			var now int64
			var n uint64
			work := func() {
				for i := 0; i < 4096; i++ {
					// Bursts of twelve events 1 µs apart: the cap of
					// eight cuts each burst once, and a 1 ms gap after
					// it cuts the rest by the window. Blocks repeat
					// within a burst.
					if n%12 == 0 {
						now += int64(time.Millisecond)
					}
					now += int64(time.Microsecond)
					if err := m.HandleEvent(blktrace.Event{Time: now, Op: blktrace.OpWrite,
						Extent: blktrace.Extent{Block: n % 12 % 5 * 8, Len: 8}}); err != nil {
						t.Fatal(err)
					}
					n++
				}
			}
			work() // warm up: the open transaction's slices reach the cap
			if avg := testing.AllocsPerRun(20, work); avg > 0 {
				t.Errorf("HandleEvent allocates %.0f times per 4096 events at steady state, want 0", avg)
			}
			st := m.Stats()
			if st.CapSplits == 0 || st.Transactions <= st.CapSplits || (st.Duplicates == 0) != keep {
				t.Fatalf("stream should cut by cap and by window, and dedup iff enabled: %+v", st)
			}
		})
	}
}
