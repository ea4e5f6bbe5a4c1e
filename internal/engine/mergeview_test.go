package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/core"
	"daccor/internal/monitor"
)

// The engine's merged read path is incrementally maintained (only
// devices whose epoch moved are re-exported into the merge index);
// these tests pin it against the from-scratch answer — MergeSnapshots
// over the per-device exports — through ingest churn, partitioning,
// support filters, and device unregistration.

func mergedFromScratch(t *testing.T, e *Engine, devices []string, minSupport uint32) core.Snapshot {
	t.Helper()
	snaps := make([]core.Snapshot, 0, len(devices))
	for _, id := range devices {
		s, err := e.Snapshot(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, s)
	}
	return core.MergeSnapshots(snaps...).FilterSupport(minSupport)
}

func testMergedIncrementalEqualsScratch(t *testing.T, parts int) {
	devices := []string{"vol0", "vol1", "vol2", "vol3"}
	opts := []Option{
		WithMonitor(monitor.Config{Window: monitor.StaticWindow(time.Millisecond)}),
		WithAnalyzer(core.Config{ItemCapacity: 4096, PairCapacity: 4096}),
		WithDevices(devices...),
		WithBackpressure(Block),
	}
	if parts > 1 {
		opts = append(opts, WithPartitions(parts))
	}
	e, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	rng := rand.New(rand.NewSource(17))
	submitted := make(map[string]uint64)
	var clock int64
	burst := func(id string) {
		// A short run of overlapping transactions on one device; the
		// millisecond gaps close each transaction behind it.
		for tx := 0; tx < 8; tx++ {
			n := 2 + rng.Intn(3)
			for i := 0; i < n; i++ {
				ev := blktrace.Event{Time: clock, Op: blktrace.OpRead,
					Extent: blktrace.Extent{Block: uint64(rng.Intn(64)) * 8, Len: 8}}
				if err := e.Submit(id, ev); err != nil {
					t.Fatal(err)
				}
				submitted[id]++
				clock += 10_000 // 10µs: same window
			}
			clock += int64(2 * time.Millisecond)
		}
		waitDrained(t, e, id, submitted[id])
	}

	for round := 0; round < 25; round++ {
		// Steady state: every round dirties exactly one device, the
		// shape the incremental maintainer is built for.
		burst(devices[rng.Intn(len(devices))])
		for _, minSupport := range []uint32{0, 1, 3} {
			got, err := e.MergedSnapshot(minSupport)
			if err != nil {
				t.Fatal(err)
			}
			want := mergedFromScratch(t, e, devices, minSupport)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d support %d: incremental merged view diverged: %d/%d pairs/items, want %d/%d",
					round, minSupport, len(got.Pairs), len(got.Items), len(want.Pairs), len(want.Items))
			}
		}
		fullRules, err := e.MergedRules(2, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		st, _, _, err := e.MergedState(2, 0.1, 5, core.WantPairs|core.WantRules)
		if err != nil {
			t.Fatal(err)
		}
		wantTop := fullRules
		if len(wantTop) > 5 {
			wantTop = wantTop[:5]
		}
		if !reflect.DeepEqual(st.Rules, wantTop) {
			t.Fatalf("round %d: MergedState rules != MergedRules[:5] (%d vs %d rules)", round, len(st.Rules), len(wantTop))
		}
		want := mergedFromScratch(t, e, devices, 2)
		if st.TotalPairs != len(want.Pairs) || !reflect.DeepEqual(st.Pairs, want.TopPairs(5)) {
			t.Fatalf("round %d: MergedState pairs != merged snapshot's top 5 (total %d, want %d)", round, st.TotalPairs, len(want.Pairs))
		}
	}

	// Unregistering a device must replay its contribution out of the
	// merged view; registering a fresh one must fold it in.
	if err := e.Unregister("vol1"); err != nil {
		t.Fatal(err)
	}
	devices = []string{"vol0", "vol2", "vol3"}
	got, err := e.MergedSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := mergedFromScratch(t, e, devices, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("after unregister: merged view diverged (%d pairs, want %d)", len(got.Pairs), len(want.Pairs))
	}
	if err := e.Register("vol4"); err != nil {
		t.Fatal(err)
	}
	devices = append(devices, "vol4")
	burst("vol4")
	got, err = e.MergedSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := mergedFromScratch(t, e, devices, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("after register: merged view diverged (%d pairs, want %d)", len(got.Pairs), len(want.Pairs))
	}
}

func TestMergedIncrementalEqualsScratch(t *testing.T) {
	for _, parts := range []int{1, 3} {
		t.Run(fmt.Sprintf("parts-%d", parts), func(t *testing.T) {
			testMergedIncrementalEqualsScratch(t, parts)
		})
	}
}
