// Command aggregatord is the fleet half of the deployment: it accepts
// delta syncs pushed by charactld collectors (POST /v1/sync), mirrors
// their per-device synopses, and serves the merged fleet-wide
// correlations, rules, and staleness over the same /v1 read surface —
// routes, parameters, ETags, watch — the collectors themselves serve.
//
// The aggregator is built to keep answering through partitions: a
// collector that goes silent ages from healthy to degraded (its mirror
// still serves, marked stale in every response's data.fleet block) to
// failed (excluded from the merge), and reads never turn into 5xxs on
// the way down. A collector whose sync disagrees with the mirror is
// repaired by anti-entropy — the aggregator demands a full snapshot
// and the collector ships it next round.
//
// Usage:
//
//	aggregatord -listen 127.0.0.1:9700
//	charactld -workload wdev -aggregator http://127.0.0.1:9700
//	curl localhost:9700/v1/snapshot?support=5   # fleet-wide merge + staleness
//	curl localhost:9700/v1/collectors           # per-collector sync state
//	curl localhost:9700/v1/watch                # SSE push of fleet changes
//
// With -state-dir the mirrors are checkpointed crash-safely every
// -state-interval and restored on startup, so a restart serves the
// fleet view immediately — and collectors that kept running can resume
// delta syncing against the restored mirrors instead of re-shipping
// full snapshots.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"daccor/internal/checkpoint"
	"daccor/internal/fleet"
)

// stateDevice is the checkpoint-store key the aggregator's state is
// filed under; the store is per-device, and the aggregator state is
// one logical device.
const stateDevice = "aggregator"

// shutdownTimeout bounds the HTTP drain on termination; the final
// state save that follows is not subject to it.
const shutdownTimeout = 5 * time.Second

func main() {
	listen := flag.String("listen", "127.0.0.1:9700", "HTTP listen address")
	lease := flag.Duration("lease", fleet.DefaultLease, "sync lease: a collector silent longer than this is degraded (served stale)")
	failAfter := flag.Duration("fail-after", fleet.DefaultFailAfter, "silence after which a collector is failed and excluded from merged reads")
	stateDir := flag.String("state-dir", "", "directory for crash-safe mirror state checkpoints (empty = persistence off)")
	stateInterval := flag.Duration("state-interval", 30*time.Second, "how often the mirror state is persisted (with -state-dir)")
	stateKeep := flag.Int("state-keep", checkpoint.DefaultKeep, "state generations retained (with -state-dir)")
	flag.Parse()

	agg := fleet.NewAggregator(fleet.Config{Lease: *lease, FailAfter: *failAfter})

	var store *checkpoint.Store
	if *stateDir != "" {
		if *stateInterval <= 0 {
			log.Fatalf("aggregatord: -state-interval must be > 0 (got %v)", *stateInterval)
		}
		var err error
		store, err = checkpoint.Open(checkpoint.Config{Dir: *stateDir, Keep: *stateKeep})
		if err != nil {
			log.Fatal(err)
		}
		gen, err := store.RestoreWith(stateDevice, agg.LoadState)
		switch {
		case err == nil:
			log.Printf("aggregatord: restored mirror state generation %d (%d collector(s))",
				gen.Seq, len(agg.Collectors()))
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			log.Printf("aggregatord: no prior state in %s, starting cold", *stateDir)
		default:
			log.Fatal(err)
		}
	}

	saveState := func(reason string) {
		if store == nil {
			return
		}
		if _, err := store.Save(stateDevice, agg); err != nil {
			log.Printf("aggregatord: %s state save failed: %v", reason, err)
		}
	}
	stopSaver := make(chan struct{})
	if store != nil {
		go func() {
			t := time.NewTicker(*stateInterval)
			defer t.Stop()
			for {
				select {
				case <-stopSaver:
					return
				case <-t.C:
					saveState("periodic")
				}
			}
		}()
	}

	log.Printf("aggregatord: serving fleet view on http://%s (lease %v, fail-after %v)", *listen, *lease, *failAfter)
	log.Printf("v1 endpoints: /v1/sync  /v1/snapshot  /v1/rules  /v1/watch  /v1/devices  /v1/devices/{id}/{snapshot,rules,watch}  /v1/collectors  /v1/metrics  /v1/healthz  /v1/readyz")
	if store != nil {
		log.Printf("state: %s every %v (keep %d)", *stateDir, *stateInterval, *stateKeep)
	}

	srv := &http.Server{Addr: *listen, Handler: fleet.NewHandler(agg)}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("aggregatord: %v: shutting down (drain deadline %v)", sig, shutdownTimeout)
		// Drain HTTP first so in-flight syncs land in the mirrors, then
		// close the aggregator (refusing new syncs, ending watches), and
		// only then persist — the final state includes every sync that
		// was acked.
		ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("aggregatord: http shutdown: %v", err)
		}
		cancel()
		close(stopSaver)
		agg.Close()
		saveState("final")
		log.Printf("aggregatord: stopped")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			close(stopSaver)
			agg.Close()
			saveState("final")
			log.Fatal(err)
		}
	}
}
