// Command benchjson converts `go test -bench` text output into a
// stable JSON document, so benchmark baselines can be committed and
// diffed (see BENCH_baseline.json and the `make bench` target).
//
//	go test -bench . -benchmem ./... | benchjson > BENCH_baseline.json
//
// The parser accepts the standard benchmark result line:
//
//	BenchmarkName[-GOMAXPROCS]  N  X ns/op  [Y MB/s]  [Z B/op]  [W allocs/op]
//
// plus the goos/goarch/pkg/cpu context lines, which are carried into
// the output as metadata. Lines that are not benchmark results (PASS,
// ok, test logs) are ignored, so the whole `go test` stream can be
// piped through unfiltered.
//
// `go test` prints GOMAXPROCS nowhere but in that name suffix, where it
// is textually the same as a numbered sub-benchmark (devices-4), so
// benchjson takes the run's GOMAXPROCS to be its own — it converts in
// the same pipeline, on the same host — records it in the header, and
// strips a trailing -N from a name only when N equals it. Names are
// then keyed the same whatever the width of the host that recorded
// them.
//
// Diff mode compares two converted documents:
//
//	benchjson -diff BENCH_baseline.json BENCH_pr10.json
//
// printing a per-benchmark delta table keyed by (pkg, name). With
// -fail-on-alloc-regress the exit status is 1 if any benchmark present
// in both documents reports more allocs/op in the new one — ns/op is
// machine- and load-sensitive, but allocation counts are deterministic,
// so they are the only dimension a CI gate can judge without flaking.
// With -fail-on-increase REGEXP the exit status is 1 if any benchmark
// whose name matches reports a larger ns/op value than the baseline,
// or is missing from the new document. This gates entries whose ns/op
// field carries a counter rather than a timing (the soak harness emits
// its SLO-violation count this way), where any increase is a
// regression by definition.
// With -fail-on-alloc-increase REGEXP the exit status is 1 if any
// benchmark whose name matches reports more allocs/op than the
// baseline, or is missing from the new document. Unlike the blanket
// -fail-on-alloc-regress it also refuses to let the gated benchmark
// disappear — it names benchmarks whose allocation count IS the
// contract (the merged fan-in read must stay O(1) allocations per
// read regardless of fleet size), where silently losing the metric
// would silently lose the gate. ns/op is never judged for these.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark measurement.
type Result struct {
	// Name is the benchmark name as printed, less the -GOMAXPROCS
	// suffix when it carries the run's (see Doc.Procs). Any other
	// trailing -N is part of the name: a numbered sub-benchmark, or a
	// lap of a -cpu list at another width.
	Name string `json:"name"`
	// Pkg is the package under test, from the preceding "pkg:" line.
	Pkg string `json:"pkg,omitempty"`
	// Procs is the GOMAXPROCS suffix stripped from the name, 0 when it
	// carried none (go test omits it at GOMAXPROCS=1).
	Procs int `json:"procs,omitempty"`
	// N is the iteration count.
	N int64 `json:"n"`
	// NsPerOp is nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// MBPerSec is throughput, when the benchmark calls SetBytes.
	MBPerSec float64 `json:"mb_per_s,omitempty"`
	// BytesPerOp and AllocsPerOp are present with -benchmem.
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// Doc is the whole converted run.
type Doc struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Procs is the GOMAXPROCS the run was converted — and so, in the
	// Makefile's pipelines, recorded — under.
	Procs      int      `json:"gomaxprocs,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "write JSON to this file instead of stdout")
	diff := flag.Bool("diff", false, "compare two benchjson documents: benchjson -diff old.json new.json")
	failAlloc := flag.Bool("fail-on-alloc-regress", false, "with -diff, exit 1 if any benchmark's allocs/op regressed")
	failIncrease := flag.String("fail-on-increase", "", "with -diff, exit 1 if a benchmark matching this regexp reports a larger ns/op value (or is missing)")
	failAllocIncrease := flag.String("fail-on-alloc-increase", "", "with -diff, exit 1 if a benchmark matching this regexp reports more allocs/op (or is missing)")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		compile := func(name, expr string) *regexp.Regexp {
			if expr == "" {
				return nil
			}
			re, err := regexp.Compile(expr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", name, err)
				os.Exit(2)
			}
			return re
		}
		gate := compile("-fail-on-increase", *failIncrease)
		allocGate := compile("-fail-on-alloc-increase", *failAllocIncrease)
		os.Exit(runDiff(os.Stdout, flag.Arg(0), flag.Arg(1), *failAlloc, gate, allocGate))
	}

	doc, err := parse(os.Stdin, runtime.GOMAXPROCS(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results in input")
		os.Exit(1)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse converts a `go test -bench` stream recorded at GOMAXPROCS
// procs.
func parse(r io.Reader, procs int) (*Doc, error) {
	doc := &Doc{Procs: procs, Benchmarks: []Result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseResult(line, procs)
			if ok {
				res.Pkg = pkg
				doc.Benchmarks = append(doc.Benchmarks, res)
			}
		}
	}
	return doc, sc.Err()
}

// parseResult parses one benchmark result line; ok is false for lines
// that start with "Benchmark" but are not results (e.g. a test log
// line that happens to mention a benchmark). procs is the run's
// GOMAXPROCS: the one trailing -N that is a suffix and not a name.
func parseResult(line string, procs int) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 { // minimum shape: Name N value ns/op
		return Result{}, false
	}
	var res Result
	res.Name = fields[0]
	if name, ok := strings.CutSuffix(res.Name, "-"+strconv.Itoa(procs)); ok && procs > 1 {
		res.Name, res.Procs = name, procs
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res.N = n
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
			sawNs = true
		case "MB/s":
			res.MBPerSec = v
		case "B/op":
			res.BytesPerOp = int64(v)
		case "allocs/op":
			res.AllocsPerOp = int64(v)
		}
	}
	return res, sawNs
}
