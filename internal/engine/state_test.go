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
	"daccor/internal/obs"
)

// TestEngineStateMatchesExports holds the bounded read on a live engine
// to the two reads it replaced on the HTTP path — the sorted export cut
// to top, and the full rule list cut to top — through ingest churn on
// tables small enough to evict, unpartitioned and partitioned. It also
// pins the sharing: however many bounded and export reads hit one
// epoch, the worker is asked for one shared capture (the unbounded
// Rules takes a pooled one of its own, which the miss counter does not
// see).
func TestEngineStateMatchesExports(t *testing.T) {
	for _, parts := range []int{1, 3} {
		t.Run(fmt.Sprintf("P=%d", parts), func(t *testing.T) {
			e := mustEngine(t,
				WithMonitor(monitor.Config{Window: monitor.StaticWindow(time.Millisecond)}),
				WithAnalyzer(core.Config{ItemCapacity: 96, PairCapacity: 240}),
				WithDevices("dev"),
				WithBackpressure(Block),
				WithPartitions(parts),
			)
			defer e.Stop()
			misses := e.Metrics().Counter(MetricSnapshotCacheMisses, "", obs.L("device", "dev"))

			rng := rand.New(rand.NewSource(int64(parts)))
			var clock int64
			var submitted uint64
			for round := 0; round < 12; round++ {
				for tx := 0; tx < 40; tx++ {
					for i, n := 0, 2+rng.Intn(4); i < n; i++ {
						ev := blktrace.Event{Time: clock, Op: blktrace.OpRead,
							Extent: blktrace.Extent{Block: uint64(rng.Intn(160)) * 8, Len: 8}}
						if err := e.Submit("dev", ev); err != nil {
							t.Fatal(err)
						}
						submitted++
						clock += 10_000
					}
					clock += int64(2 * time.Millisecond)
				}
				waitDrained(t, e, "dev", submitted)

				// A partition worker may still be applying the last
				// transaction. Reads label themselves with the epoch at
				// the time of the read, so when it is the same before
				// and after a set of reads, they all saw one epoch —
				// and only then is a difference a failure.
				for attempt := 0; ; attempt++ {
					if attempt == 100 {
						t.Fatalf("round %d: the device epoch never held still across one set of reads", round)
					}
					epoch, err := e.Epoch("dev")
					if err != nil {
						t.Fatal(err)
					}
					before := misses.Value()
					diff := compareStateToExports(t, e, "dev")
					if now, err := e.Epoch("dev"); err != nil {
						t.Fatal(err)
					} else if now != epoch {
						continue
					}
					if diff != "" {
						t.Fatalf("round %d: %s", round, diff)
					}
					if took := misses.Value() - before; took > 1 {
						t.Fatalf("round %d: %d captures taken for the reads of one epoch, want at most 1", round, took)
					}
					break
				}
			}
			ds, err := e.DeviceStatsFor("dev")
			if err != nil {
				t.Fatal(err)
			}
			if ds.Analyzer.PairEvictions == 0 {
				t.Fatal("the run never evicted a pair: capacities too large to exercise the claim")
			}
		})
	}
}

// compareStateToExports reads the device every way the grid names and
// describes the first difference between the bounded read and the
// exports, "" when there is none.
func compareStateToExports(t *testing.T, e *Engine, id string) string {
	t.Helper()
	for _, support := range []uint32{0, 1, core.DefaultPromoteThreshold, 5} {
		snap, err := e.Snapshot(id, support)
		if err != nil {
			t.Fatal(err)
		}
		rules, err := e.Rules(id, support, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		for _, top := range []int{0, 1, 64, 10_000} {
			got, _, err := e.State(id, support, 0.3, top, core.WantPairs|core.WantRules)
			if err != nil {
				t.Fatal(err)
			}
			want := core.State{TotalPairs: len(snap.Pairs), Pairs: snap.TopPairs(top)}
			if top > 0 && len(rules) > 0 {
				want.Rules = rules[:min(top, len(rules))]
			}
			if !reflect.DeepEqual(got, want) {
				return fmt.Sprintf("State(support %d, top %d) = %d pairs of %d / %d rules, want %d of %d / %d",
					support, top, len(got.Pairs), got.TotalPairs, len(got.Rules),
					len(want.Pairs), want.TotalPairs, len(want.Rules))
			}
		}
	}
	return ""
}
