// Command loadgen soaks the full service under sustained multi-tenant
// load: many devices fed concurrently over the engine and HTTP ingest
// paths, tenants churned out of and back into the fleet mid-stream,
// worker crashes injected under the supervisor, and live query + SSE
// watch traffic held open throughout. After the run it asserts the
// SLOs (tail submit latency, drop rate, heap growth, goroutine leaks,
// watcher liveness) and prints the violations, or a one-line summary
// when every SLO held, to stderr.
//
// The command exits non-zero when any SLO is violated, which is the
// whole of the soak gate: `make soak-smoke` and `make soak-smoke-p4`
// are this exit status.
//
//	loadgen [-profile quick|tiny] [-partitions P] [-seed N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"daccor/internal/soak"
)

func main() {
	profile := flag.String("profile", "quick", "soak profile: quick or tiny")
	partitions := flag.Int("partitions", 0, "override the profile's per-device analyzer partition count (0 = profile default)")
	seed := flag.Int64("seed", 0, "override the profile's workload seed")
	flag.Parse()

	var cfg soak.Config
	switch *profile {
	case "quick":
		cfg = soak.Quick()
	case "tiny":
		cfg = soak.Tiny()
	default:
		fmt.Fprintf(os.Stderr, "loadgen: unknown profile %q (want quick or tiny)\n", *profile)
		os.Exit(2)
	}
	if *partitions != 0 {
		cfg.Partitions = *partitions
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	logger := log.New(os.Stderr, "", log.Ltime)
	res, err := soak.Run(cfg, logger.Printf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}

	if len(res.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d SLO violation(s):\n", len(res.Violations))
		for _, v := range res.Violations {
			fmt.Fprintln(os.Stderr, "  -", v)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "loadgen: all SLOs held: %d events, %d devices, %d churns, %d panics, p99 %v\n",
		res.EventsSubmitted, res.Devices, res.ChurnCycles, res.PanicsInjected, res.SubmitP99)
}
