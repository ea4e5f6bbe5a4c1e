// Livemonitor: query the characterizer while the workloads run.
//
// The paper's framework is meant to run *alongside* the workload,
// answering "what is correlated right now?" at any moment. This
// example starts the multi-device collection engine with two volumes,
// feeds each its own workload from a producer goroutine, and — while
// ingestion is still in flight — periodically asks for the per-device
// and fleet-wide merged top correlations, printing how the picture
// sharpens as evidence accumulates.
//
// Run with: go run ./examples/livemonitor
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"daccor/internal/core"
	"daccor/internal/engine"
	"daccor/internal/monitor"
	"daccor/internal/workload"
)

func main() {
	// Two volumes with different access patterns: an inode-style
	// one-to-many workload and a many-to-many one.
	traces := map[string]workload.Kind{
		"vol0": workload.OneToMany,
		"vol1": workload.ManyToMany,
	}

	eng, err := engine.New(
		engine.WithMonitor(monitor.Config{Window: monitor.StaticWindow(10 * time.Millisecond)}),
		engine.WithAnalyzer(core.Config{ItemCapacity: 8192, PairCapacity: 8192}),
		engine.WithBackpressure(engine.Block), // replayed stream: lose nothing
		engine.WithDevices("vol0", "vol1"),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Producers: stream each volume's trace in concurrently.
	var wg sync.WaitGroup
	seed := int64(11)
	for id, kind := range traces {
		syn, err := workload.Generate(workload.SyntheticConfig{
			Kind:        kind,
			Occurrences: 3000,
			Seed:        seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		seed++
		dev, err := eng.Device(id)
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Batched ingest: one queue lock per chunk instead of per
			// event.
			evs := syn.Trace.Events
			for len(evs) > 0 {
				n := min(256, len(evs))
				if err := dev.SubmitBatch(evs[:n]); err != nil {
					log.Printf("submit %s: %v", dev.ID(), err)
					return
				}
				evs = evs[n:]
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// Consumer: poll the live state while the producers run.
	fmt.Println("live view of the synopses while the streams are being ingested:")
	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	lastSeen := uint64(0)
poll:
	for {
		select {
		case <-done:
			break poll
		case <-ticker.C:
			st, err := eng.Stats()
			if err != nil {
				log.Fatal(err)
			}
			events := st.TotalMonitor().Events
			if events == lastSeen {
				continue
			}
			lastSeen = events
			merged, err := eng.MergedSnapshot(5)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  after %6d events: %3d frequent pairs fleet-wide", events, len(merged.Pairs))
			if top := merged.TopPairs(1); len(top) == 1 {
				fmt.Printf(", hottest %s ×%d", top[0].Pair, top[0].Count)
			}
			fmt.Println()
		}
	}

	// Per-device answers: what correlates on each volume.
	for _, id := range eng.Devices() {
		snap, err := eng.Snapshot(id, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s: %d frequent pairs (support ≥ 5)\n", id, len(snap.Pairs))
	}

	// Final fleet-wide answer: directional rules, the prefetcher-ready
	// form, derived from the merged synopsis.
	st, _, _, err := eng.MergedState(10, 0.6, 8, core.WantRules)
	if err != nil {
		log.Fatal(err)
	}
	eng.Stop()
	fmt.Printf("\nfinal fleet-wide rules (support ≥ 10, confidence ≥ 0.6):\n")
	for _, r := range st.Rules {
		fmt.Printf("  %s → %s   (%.0f%% confidence, %d observations)\n",
			r.From, r.To, 100*r.Confidence, r.Support)
	}
	fmt.Println("\nreading the left side predicts the right side — feed these to a")
	fmt.Println("prefetcher, a data placer, or a multi-stream SSD.")
}
