package soak

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestLatRecorder(t *testing.T) {
	r := &latRecorder{}
	if r.quantile(0.99) != 0 {
		t.Error("empty recorder should report 0")
	}
	for i := 0; i < 99; i++ {
		r.record(1000) // ~1 µs
	}
	r.record(1_000_000_000) // one 1 s outlier
	if got := time.Duration(r.quantile(0.5)); got > 2*time.Microsecond {
		t.Errorf("p50 = %v, want ~1µs bucket", got)
	}
	p99 := time.Duration(r.quantile(0.99))
	if p99 > 2*time.Microsecond {
		t.Errorf("p99 = %v; 99/100 samples are ~1µs", p99)
	}
	if got := time.Duration(r.quantile(1)); got != time.Second {
		t.Errorf("p100 = %v, want the 1s max", got)
	}
	if r.max != 1_000_000_000 {
		t.Errorf("max = %d", r.max)
	}

	other := &latRecorder{}
	other.record(-5) // clamps, does not underflow
	other.record(1 << 62)
	merged := &latRecorder{}
	merged.merge(r)
	merged.merge(other)
	if merged.count != r.count+other.count {
		t.Errorf("merged count = %d", merged.count)
	}
	if merged.max != 1<<62 {
		t.Errorf("merged max = %d", merged.max)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, profile := range []Config{Quick(), Tiny()} {
		if err := profile.validate(); err != nil {
			t.Errorf("profile invalid: %v", err)
		}
	}
	bad := []func(*Config){
		func(c *Config) { c.Devices = 0 },
		func(c *Config) { c.Events = 0 },
		func(c *Config) { c.Feeders = 0 },
		func(c *Config) { c.Batch = 0 },
		func(c *Config) { c.QueueSize = c.Batch - 1 },
		func(c *Config) { c.Partitions = -1 },
		func(c *Config) { c.Partitions = 65 },
		func(c *Config) { c.ChurnFrac = 1.5 },
		func(c *Config) { c.Panics = -1 },
		func(c *Config) { c.Watchers = 0 },
		func(c *Config) { c.ChurnFrac = 1; c.Watchers = 4 }, // victims collide with watch targets
		func(c *Config) { c.Window = 0 },
		func(c *Config) { c.CheckpointEvery = 0 },
		func(c *Config) { c.MaxDuration = 0 },
		func(c *Config) { c.MinDuration = -1 },
		func(c *Config) { c.MinDuration = c.MaxDuration },
	}
	for i, mutate := range bad {
		c := Tiny()
		mutate(&c)
		if err := c.validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}

func TestEvaluateFlagsViolations(t *testing.T) {
	cfg := Tiny()
	// A clean result: everything the structural checks demand.
	clean := func() *Result {
		return &Result{
			EventsSubmitted: cfg.Events,
			HTTPEvents:      100,
			SubmitP99:       time.Millisecond,
			HTTPSubmitP99:   time.Millisecond,
			ChurnCycles:     cfg.churnCycles(),
			PanicsInjected:  cfg.Panics,
			WatchDeliveries: 10,
			FleetDeliveries: 2,
			Queries:         10,
			FleetSyncRounds: 20,
			FleetConverged:  true,
			FleetReads:      5,
		}
	}
	r := clean()
	r.evaluate(cfg)
	if len(r.Violations) != 0 {
		t.Fatalf("clean result flagged: %v", r.Violations)
	}

	cases := []struct {
		name   string
		mutate func(*Result)
		want   string
	}{
		{"timeout", func(r *Result) { r.TimedOut = true }, "timed out"},
		{"short", func(r *Result) { r.EventsSubmitted = 1 }, "submitted"},
		{"no http", func(r *Result) { r.HTTPEvents = 0 }, "HTTP ingest"},
		{"p99", func(r *Result) { r.SubmitP99 = cfg.SLO.SubmitP99 + 1 }, "p99"},
		{"drops", func(r *Result) { r.EventsDropped = r.EventsSubmitted }, "drop rate"},
		{"reorder late", func(r *Result) { r.ReorderLate = r.EventsSubmitted }, "reorder late"},
		{"reorder lost", func(r *Result) { r.ReorderLost = r.EventsDropped + 1 }, "reorder lost"},
		{"heap", func(r *Result) { r.HeapFinal = r.HeapBaseline + cfg.SLO.MaxHeapGrowth + 1 }, "heap"},
		{"goroutines", func(r *Result) { r.GoroutineFinal = cfg.SLO.MaxGoroutineGrowth + 1 }, "goroutines"},
		{"series", func(r *Result) { r.SeriesFinal = r.SeriesBaseline + seriesSlack + 1 }, "series"},
		{"churn", func(r *Result) { r.ChurnCycles-- }, "churn"},
		{"bad end", func(r *Result) { r.BadWatchEnds = 1 }, "terminal end"},
		{"panics", func(r *Result) { r.PanicsInjected-- }, "panics"},
		{"stalled", func(r *Result) { r.StalledWatchers = 1 }, "never delivered"},
		{"gap", func(r *Result) { r.MaxWatchGap = cfg.SLO.MaxWatchGap + 1 }, "gap"},
		{"fleet silent", func(r *Result) { r.FleetDeliveries = 0 }, "fleet watcher"},
		{"queries", func(r *Result) { r.Queries = 0 }, "query"},
		{"sync silent", func(r *Result) { r.FleetSyncRounds = 0 }, "sync never"},
		{"diverged", func(r *Result) { r.FleetConverged = false }, "converge"},
		{"fleet reads", func(r *Result) { r.FleetReads = 0 }, "fleet read traffic"},
		{"fleet read errors", func(r *Result) { r.FleetReadErrors = 3 }, "fleet reads failed"},
		{"sync age", func(r *Result) { r.FleetMaxSyncAge = cfg.SLO.MaxSyncAge + 1 }, "sync age"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := clean()
			tc.mutate(r)
			r.evaluate(cfg)
			if len(r.Violations) == 0 {
				t.Fatal("violation not flagged")
			}
			found := false
			for _, v := range r.Violations {
				if strings.Contains(v, tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("violations %v mention %q nowhere", r.Violations, tc.want)
			}
		})
	}
}

// TestRunMicro drives the whole harness end to end at unit-test scale:
// real engine, real HTTP server, churn, an injected panic, watchers,
// and queries, with every SLO expected to hold — once on the
// single-partition pipeline, once with each device's analyzer split
// across four partition workers.
func TestRunMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("soak run in -short mode")
	}
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions-%d", parts), func(t *testing.T) {
			cfg := Config{
				Devices:         6,
				Events:          8_000,
				Feeders:         2,
				Batch:           64,
				QueueSize:       256,
				Partitions:      parts,
				ChurnFrac:       0.34, // 2 cycles
				Panics:          1,
				Watchers:        2,
				Window:          5 * time.Millisecond,
				CheckpointEvery: 25 * time.Millisecond,
				FleetSync:       50 * time.Millisecond,
				Seed:            7,
				MinDuration:     1500 * time.Millisecond,
				MaxDuration:     90 * time.Second,
				SLO: SLO{
					SubmitP99:          5 * time.Second,
					HTTPSubmitP99:      10 * time.Second,
					MaxDropPct:         50,
					MaxHeapGrowth:      256 << 20,
					MaxGoroutineGrowth: 16,
					MaxWatchGap:        time.Minute,
					MaxReorderLatePct:  5,
					MaxSyncAge:         time.Minute,
				},
			}
			res, err := Run(cfg, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("SLO violations: %v", res.Violations)
			}
			if res.Partitions != parts {
				t.Errorf("partitions %d, want %d", res.Partitions, parts)
			}
			if res.EventsSubmitted < cfg.Events {
				t.Errorf("submitted %d < %d", res.EventsSubmitted, cfg.Events)
			}
			if res.HTTPEvents == 0 {
				t.Error("HTTP path idle")
			}
			if res.ChurnCycles != cfg.churnCycles() {
				t.Errorf("churn cycles %d, want %d", res.ChurnCycles, cfg.churnCycles())
			}
			if res.PanicsInjected != cfg.Panics {
				t.Errorf("panics %d, want %d", res.PanicsInjected, cfg.Panics)
			}
			if res.SubmitSamples == 0 || res.HTTPSamples == 0 {
				t.Error("latency recorders empty")
			}
			// DropOldest sheds pass through the reorder-lost counter, so
			// the two accounts must agree for surviving devices.
			if res.ReorderLost > res.EventsDropped {
				t.Errorf("reorder lost %d > dropped %d", res.ReorderLost, res.EventsDropped)
			}
			if !res.FleetConverged {
				t.Error("fleet mirror did not converge")
			}
			if res.FleetSyncRounds == 0 || res.FleetReads == 0 {
				t.Errorf("fleet traffic idle: %d rounds, %d reads", res.FleetSyncRounds, res.FleetReads)
			}
		})
	}
}
