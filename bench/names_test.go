package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json; unknown keys fail the decode.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Every name the program can print — workloads and metrics — is in
// BENCHMARK.json with the same unit, direction and bound, and the
// file stays inside the limits a benchmark definition must respect.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}

	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name("workload", w.name)
		if got := b.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
		if _, ok := specByName(endToEnd, w.primary); !ok {
			t.Errorf("workload %s: primary metric %q is not an end-to-end metric", w.name, w.primary)
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, s := range endToEnd {
		name("metric", s.name)
		got := b.EndToEnd[i]
		if got.Name != s.name || got.Unit != s.unit || got.Better != s.better || got.Bound != s.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, s)
		}
		if !unitRE.MatchString(s.unit) {
			t.Errorf("%s: unit %q does not match %v", s.name, s.unit, unitRE)
		}
		if s.better != "lower" && s.better != "higher" {
			t.Errorf("%s: better = %q", s.name, s.better)
		}
		if s.bound <= 0 || s.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.name, s.bound)
		}
		if s.name == "setup_s" {
			setupBound = s.bound
			if s.unit != "s" || s.better != "lower" {
				t.Errorf("setup_s must be in s, lower is better: %+v", s)
			}
		}
		maxBound = max(maxBound, s.bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must exist and carry the largest bound (has %v, largest %v)", setupBound, maxBound)
	}

	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}
	for i, s := range perLayer {
		name("metric", s.name)
		if got := b.PerLayer[i]; got.Name != s.name || got.Unit != s.unit || got.Better != s.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, s)
		}
		if !unitRE.MatchString(s.unit) {
			t.Errorf("%s: unit %q does not match %v", s.name, s.unit, unitRE)
		}
	}

	// Span names share the layer prefixes of the per-layer metrics.
	for _, sp := range []string{spanSubmitBatch, spanBarrier, spanHTTPPost, spanProbePost, spanProbeWait,
		spanRead, spanRead200, spanRead304, spanFleetCycle, spanSyncNow, spanAggGet} {
		if !nameRE.MatchString(sp) {
			t.Errorf("span name %q does not match %v", sp, nameRE)
		}
	}
}
