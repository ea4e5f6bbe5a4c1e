// Command bench is the repository benchmark: five workloads over the
// whole system in one process, end-to-end metrics from an untraced
// pass, per-layer metrics from a traced pass, and correctness gates in
// the same run. See README.md and ../BENCHMARK.json.
//
//	bench --workload live-watch --seed 1 --seconds 10 --trace 0
//	bench -seed 1 -o run.json          # every workload, both passes
//	bench -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const (
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 10
	// rounds: a run builds the system this many times and measures every
	// metric once on each build, --seconds/rounds of native load each.
	// The level a build runs at depends on where its tables landed in
	// physical memory and on what the host's other tenants were doing in
	// those seconds; six builds let the report pick a quiet one (see
	// quiet) and give set-up time six samples.
	rounds = 6
)

// metricValue is one reported number. A timing also carries, over the
// samples of all rounds, their count, their median and the highest
// percentile with at least minBeyond samples beyond it.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Median  float64 `json:"pooled_median,omitempty"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// runReport is one pass over one workload.
type runReport struct {
	Workload  string                 `json:"workload"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Error     string                 `json:"error,omitempty"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Ladder    *ladder                `json:"ladder,omitempty"`
}

// report is the -o document: every run of one invocation.
type report struct {
	Seed    int64       `json:"seed"`
	Seconds int         `json:"seconds"`
	NumCPU  int         `json:"num_cpu"`
	Go      string      `json:"go"`
	Runs    []runReport `json:"runs"`
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timed runs the workload's native phase for d, ends it with the
// barrier, and derives the rates every workload reports.
func (w *workload) timed(s *system, tr *tracer, d time.Duration, out *measured) error {
	events0, cpu0, epochs0 := s.eventsSubmitted(), cpuSeconds(), s.epochSum()
	start := time.Now()
	if err := w.native(s, tr, d, out); err != nil {
		return err
	}
	if err := s.barrier(); err != nil {
		return err
	}
	elapsed, cpu := time.Since(start), cpuSeconds()-cpu0
	events := float64(s.eventsSubmitted() - events0)
	out.add("ingest_events_per_s", events/elapsed.Seconds())
	out.add("cpu_s_per_mevent", cpu/(events/1e6))
	out.add("engine.epochs_per_kevent", float64(s.epochSum()-epochs0)/(events/1000))
	return nil
}

func (s *system) epochSum() uint64 {
	sum, _ := s.eng.MergedEpoch()
	return sum
}

// overheadPct compares the traced rounds of a run with the untraced
// ones on the workload's primary metric; positive means tracing cost
// something.
func (w *workload) overheadPct(untraced, traced *measured) float64 {
	spec, _ := specByName(endToEnd, w.primary)
	u, _, _ := untraced.value(spec)
	t, _, _ := traced.value(spec)
	if spec.better == "higher" {
		return 100 * (u - t) / u
	}
	return 100 * (t - u) / u
}

// run executes one pass (traced or not) of the workload.
func (w *workload) run(seed int64, seconds int, traced bool, traceOut string) (rep runReport) {
	rep = runReport{Workload: w.name, Metrics: map[string]metricValue{}}
	if traced {
		rep.Trace = 1
	}
	out, layers, err := w.measure(seed, seconds, traced, traceOut, &rep)
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	for _, spec := range specs {
		v, sum, ok := out.value(spec)
		if lv, isLayer := layers[spec.name]; isLayer {
			v, ok = lv, true
		}
		if !ok {
			if err == nil {
				err = fmt.Errorf("metric %s was not produced", spec.name)
			}
			continue
		}
		rep.Metrics[spec.name] = metricValue{Value: v, Unit: spec.unit, Samples: sum.N, Median: sum.P50, TailPct: sum.TailPct, Tail: sum.Tail}
	}
	rep.Correct = err == nil
	if err != nil {
		rep.Error = err.Error()
	}
	return rep
}

func (w *workload) measure(seed int64, seconds int, traced bool, traceOut string, rep *runReport) (*measured, ledger, error) {
	out := newMeasured()
	in, err := w.generate(seed)
	if err != nil {
		return out, nil, err
	}
	native := time.Duration(seconds) * time.Second / rounds

	// The traced pass traces every other round, the last one among them;
	// the difference between the two kinds of round is what tracing
	// costs, and the ledger is read off the last round's live system.
	var tr *tracer
	untraced, layers := out, ledger(nil)
	if traced {
		tr, untraced, layers = newTracer(), newMeasured(), ledger{}
	}
	for r := 0; r < rounds; r++ {
		rtr, dst := tr, out
		if r%2 == 0 {
			rtr, dst = nil, untraced
		}
		var hook func(*system) error
		if traced && r == rounds-1 {
			hook = layers.fromSystem
		}
		if err := w.round(in, r, native, rtr, dst, rep, hook); err != nil {
			return out, nil, err
		}
	}
	if !traced {
		return out, nil, nil
	}
	layers["bench.trace_overhead_pct"] = w.overheadPct(untraced, out)
	spans := tr.all()
	layers.fromSpans(durations(spans))
	// The ladder and the probes of core's primitives are the same on
	// every workload: they run on ingest-saturate's first device trace.
	trace, err := generate("ladder", ingestTrace, seed)
	if err != nil {
		return out, nil, err
	}
	l, err := runLadder(trace)
	if err != nil {
		return out, nil, err
	}
	rep.Ladder = l
	layers.fromLadder(l)
	if err := layers.coreReads(l, trace); err != nil {
		return out, nil, err
	}
	if traceOut != "" {
		if err := dumpSpans(traceOut, spans); err != nil {
			return out, nil, err
		}
	}
	return out, layers, nil
}

// round is one build of the system and one measurement of every
// metric on it: the verification lap inside build, the bystander laps
// on the state it leaves, the native phase, and the checks that need
// an idle system. The caller's ledger hook, if any, runs last, on the
// live system.
func (w *workload) round(in *inputs, r int, native time.Duration, tr *tracer, out *measured, rep *runReport, ledgerHook func(*system) error) error {
	// The previous round's garbage is this build's GC work unless it is
	// collected first.
	runtime.GC()
	start := time.Now()
	sys, err := w.build(in)
	if err != nil {
		return err
	}
	defer sys.close()
	out.add("setup_s", (in.gen + time.Since(start)).Seconds())
	if r == 0 {
		recall, err := w.verifySeed(sys, in)
		if err != nil {
			return err
		}
		out.add("recall_pct", recall)
	}
	if err := w.bystanders(sys, tr, out); err != nil {
		return err
	}
	if err := w.timed(sys, tr, native, out); err != nil {
		return err
	}
	out.add("heap_mb", heapMiB())
	if err := sys.probe.finalState(); err != nil {
		return err
	}
	if r == rounds-1 {
		// Once per run: comparing whole merged exports costs seconds.
		if err := sys.verifyMerged(); err != nil {
			return err
		}
	}
	dropped, err := sys.lost()
	if err != nil {
		return err
	}
	rep.Attempted += sys.attempted.Load() + int64(sys.eventsSubmitted())
	rep.Failed += sys.failed.Load() + int64(dropped)
	if ledgerHook != nil {
		return ledgerHook(sys)
	}
	return nil
}

func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resultLine is the one-line form of a run: exactly these four keys,
// each metric exactly {value, unit}.
func resultLine(rep runReport) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rep.Correct, max(rep.Attempted, 1), rep.Failed, map[string]mv{}}
	for k, v := range rep.Metrics {
		line.Metrics[k] = mv{v.Value, v.Unit}
	}
	return json.Marshal(line)
}

// printTable writes a run for people, to stderr.
func printTable(rep runReport) {
	fmt.Fprintf(os.Stderr, "\n== %s (trace %d): correct=%v attempted=%d failed=%d %s\n",
		rep.Workload, rep.Trace, rep.Correct, rep.Attempted, rep.Failed, rep.Error)
	specs := endToEnd
	if rep.Trace == 1 {
		specs = perLayer
	}
	for _, spec := range specs {
		m, ok := rep.Metrics[spec.name]
		if !ok {
			continue
		}
		fmt.Fprintf(os.Stderr, "  %-40s %14.4f %-12s", spec.name, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(os.Stderr, " n=%d p50=%.4f", m.Samples, m.Median)
		}
		if m.TailPct > 0 {
			fmt.Fprintf(os.Stderr, " p%g=%.4f", m.TailPct, m.Tail)
		}
		fmt.Fprintln(os.Stderr)
	}
	if l := rep.Ladder; l != nil {
		fmt.Fprintf(os.Stderr, "  ladder (monotone=%v):\n", l.Monotone)
		for _, r := range l.Rungs {
			fmt.Fprintf(os.Stderr, "    %-3s %9.1f ns/event", r.Name, r.NsPerE)
			if r.Base != "" {
				fmt.Fprintf(os.Stderr, "  = %-2s %+9.1f", r.Base, r.SelfNs)
			} else {
				fmt.Fprintf(os.Stderr, "  %15s", "")
			}
			fmt.Fprintf(os.Stderr, "  %s\n", r.What)
		}
	}
}

type nameList []string

func (n *nameList) String() string     { return strings.Join(*n, ",") }
func (n *nameList) Set(v string) error { *n = append(*n, v); return nil }

func main() {
	var names nameList
	flag.Var(&names, "workload", "workload to run (repeatable; default all)")
	seed := flag.Int64("seed", 1, "input seed; the inputs depend on nothing else")
	seconds := flag.Int("seconds", defaultSeconds, "length of each timed section")
	trace := flag.Int("trace", -1, "0: untraced pass (end-to-end metrics), 1: traced pass (per-layer metrics), default both")
	traceOut := flag.String("trace-out", "", "write the traced pass's spans to this file")
	outPath := flag.String("o", "", "write the full report to this file")
	repeat := flag.Int("repeat", 1, "run every pass this many times, on seeds seed, seed+1, ...; gives -compare a spread")
	compare := flag.Bool("compare", false, "compare two report files given as arguments")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two report files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	if len(names) == 0 {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	passes := []bool{false, true}
	switch *trace {
	case 0:
		passes = []bool{false}
	case 1:
		passes = []bool{true}
	case -1:
	default:
		fatal(fmt.Errorf("-trace must be 0 or 1 (got %d)", *trace))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be >= 1 (got %d)", *seconds))
	}

	for _, name := range names {
		if workloadByName(name) == nil {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
	}

	doc := report{Seed: *seed, Seconds: *seconds, NumCPU: runtime.NumCPU(), Go: runtime.Version()}
	ok := true
	for _, traced := range passes {
		for _, name := range names {
			for r := 0; r < *repeat; r++ {
				spansTo := *traceOut
				if spansTo != "" && len(names)**repeat > 1 {
					spansTo = fmt.Sprintf("%s.%s.%d", spansTo, name, r)
				}
				rep := workloadByName(name).run(*seed+int64(r), *seconds, traced, spansTo)
				printTable(rep)
				line, err := resultLine(rep)
				if err != nil {
					fatal(err)
				}
				fmt.Printf("%s\n", line)
				ok = ok && rep.Correct && rep.Failed == 0
				doc.Runs = append(doc.Runs, rep)
			}
		}
	}
	if *outPath != "" {
		b, err := json.MarshalIndent(doc, "", " ")
		if err == nil {
			err = os.WriteFile(*outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
