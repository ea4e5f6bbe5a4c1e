package main

import (
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: daccor/internal/core
cpu: Test CPU @ 3.00GHz
BenchmarkTableTouch/churn-8   	 8227395	       143.2 ns/op	       0 B/op	       0 allocs/op
BenchmarkTableTouch/hit       	20000000	        58.76 ns/op	       0 B/op	       0 allocs/op
BenchmarkEndToEndPipeline-8   	      50	  22000000 ns/op	 150.25 MB/s	 1200000 B/op	    9000 allocs/op
some log line
BenchmarkMentionedInALog ran fine
PASS
ok  	daccor/internal/core	12.3s
`
	doc, err := parse(strings.NewReader(input), 8)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Procs != 8 {
		t.Errorf("header gomaxprocs = %d, want 8", doc.Procs)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.CPU != "Test CPU @ 3.00GHz" {
		t.Errorf("metadata = %q/%q/%q", doc.Goos, doc.Goarch, doc.CPU)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("got %d results, want 3: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	// The run's GOMAXPROCS suffix is stripped into Procs.
	r := doc.Benchmarks[0]
	if r.Name != "BenchmarkTableTouch/churn" || r.Procs != 8 || r.N != 8227395 ||
		r.NsPerOp != 143.2 || r.BytesPerOp != 0 || r.AllocsPerOp != 0 ||
		r.Pkg != "daccor/internal/core" {
		t.Errorf("churn = %+v", r)
	}
	if r := doc.Benchmarks[1]; r.Name != "BenchmarkTableTouch/hit" || r.Procs != 0 {
		t.Errorf("hit = %+v", r)
	}
	if r := doc.Benchmarks[2]; r.Name != "BenchmarkEndToEndPipeline" ||
		r.MBPerSec != 150.25 || r.AllocsPerOp != 9000 {
		t.Errorf("pipeline = %+v", r)
	}
}

// TestParseSuffixIsNotAlwaysProcs: a trailing -N is the GOMAXPROCS
// suffix only when N is the run's GOMAXPROCS. On a 2-proc run
// devices-4-2 loses its -2 and keeps its -4; a name that ends in -4
// with no suffix behind it (a 1-proc lap of a -cpu list, or a whole
// 1-proc run) is left alone rather than read as four procs.
func TestParseSuffixIsNotAlwaysProcs(t *testing.T) {
	input := `pkg: daccor
BenchmarkEngineIngest/devices-4-2   	 1000	  900.0 ns/op	  0 B/op	  0 allocs/op
BenchmarkEngineIngest/devices-4     	 1000	 1400.0 ns/op	  0 B/op	  0 allocs/op
BenchmarkEngineIngest/devices-2-2   	 1000	 1000.0 ns/op	  0 B/op	  0 allocs/op
`
	for _, c := range []struct {
		procs int
		names []string
		procd []int
	}{
		{2, []string{"BenchmarkEngineIngest/devices-4", "BenchmarkEngineIngest/devices-4", "BenchmarkEngineIngest/devices-2"}, []int{2, 0, 2}},
		{1, []string{"BenchmarkEngineIngest/devices-4-2", "BenchmarkEngineIngest/devices-4", "BenchmarkEngineIngest/devices-2-2"}, []int{0, 0, 0}},
	} {
		doc, err := parse(strings.NewReader(input), c.procs)
		if err != nil {
			t.Fatal(err)
		}
		if len(doc.Benchmarks) != len(c.names) {
			t.Fatalf("procs %d: got %d results, want %d", c.procs, len(doc.Benchmarks), len(c.names))
		}
		for i, r := range doc.Benchmarks {
			if r.Name != c.names[i] || r.Procs != c.procd[i] {
				t.Errorf("procs %d: line %d parsed as %q at %d procs, want %q at %d", c.procs, i, r.Name, r.Procs, c.names[i], c.procd[i])
			}
		}
	}
}
