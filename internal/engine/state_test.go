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
// see). And it holds the sorted export, which after the first is
// patched forward from the one before rather than sorted, to the export
// sorted from scratch off a capture of its own.
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
				// Every third round turns the tables over; the rounds
				// between move a few entries, as between two syncs.
				txs := 3
				if round%3 == 0 {
					txs = 40
				}
				for tx := 0; tx < txs; tx++ {
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
			// One export per epoch read at least: the first sorted the
			// tables, as did those after a round that lapped the discard
			// rings; the short rounds were patched.
			patched := e.Metrics().Counter(MetricExportPatched, "", obs.L("device", "dev")).Value()
			rebuilt := e.Metrics().Counter(MetricExportRebuilt, "", obs.L("device", "dev")).Value()
			if rebuilt == 0 || patched == 0 || patched+rebuilt < 12 {
				t.Fatalf("%d exports patched and %d rebuilt over 12 rounds: want the first rebuilt, some patched, one per round at least", patched, rebuilt)
			}
		})
	}
}

// compareStateToExports reads the device every way the grid names and
// describes the first difference between the bounded read and the
// exports, "" when there is none.
func compareStateToExports(t *testing.T, e *Engine, id string) string {
	t.Helper()
	sh, err := e.shard(id)
	if err != nil {
		t.Fatal(err)
	}
	var sorted core.Snapshot
	if err := sh.capture(func(g core.RawGroup) error { sorted = g.Snapshot(0); return nil }); err != nil {
		t.Fatal(err)
	}
	for _, support := range []uint32{0, 1, core.DefaultPromoteThreshold, 5} {
		snap, err := e.Snapshot(id, support)
		if err != nil {
			t.Fatal(err)
		}
		if want := sorted.FilterSupport(support); !reflect.DeepEqual(snap, want) {
			return fmt.Sprintf("Snapshot(support %d) = %d pairs / %d items, sorted from scratch %d / %d",
				support, len(snap.Pairs), len(snap.Items), len(want.Pairs), len(want.Items))
		}
		rules := sorted.TopRules(support, 0.3, 0)
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
