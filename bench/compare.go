package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what
// the acceptance check uses; v needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	n := len(d)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = max(1, min(j, n-1))
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// verdict of one (metric, workload) pairing.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of a metric in report A (the base) with those
// in B. worsening is B's median relative to A's, signed so that positive
// is worse. A worsening beyond the bound is "worse". When A's own runs
// spread wider than the bound the pairing cannot be called unchanged or
// regressed from medians alone: it is "unresolved", unless every run of
// B reads better than every run of A.
func judge(spec metricSpec, a, b []float64) (medA, medB, worsening float64, verdict string) {
	medA, medB = median(a), median(b)
	sign := 1.0
	if spec.better == "higher" {
		sign = -1
	}
	worsening = sign * (medB - medA) / medA
	if len(a) >= 4 {
		q1, q3 := quartiles(a)
		if (q3-q1)/medA > spec.bound {
			allBetter := true
			for _, x := range b {
				for _, y := range a {
					if sign*(x-y) >= 0 {
						allBetter = false
					}
				}
			}
			if !allBetter {
				return medA, medB, worsening, verdictUnresolved
			}
		}
	}
	if worsening > spec.bound {
		return medA, medB, worsening, verdictWorse
	}
	return medA, medB, worsening, verdictOK
}

// endToEndRuns groups a report's untraced values by workload and metric.
func endToEndRuns(doc report) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range doc.Runs {
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

func readReport(path string) (report, error) {
	var doc report
	b, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// compareReports prints one row per (end-to-end metric, workload) and
// reports whether any pairing is worse, or any run of B failed an
// operation or a correctness gate.
func compareReports(w io.Writer, a, b report) (worse bool) {
	ra, rb := endToEndRuns(a), endToEndRuns(b)
	fmt.Fprintf(w, "%-20s %-28s %14s %14s %22s %7s  %s\n", "workload", "metric", "A", "B", "B/A (base = A)", "bound", "verdict")
	for _, wl := range workloads {
		for _, spec := range endToEnd {
			va, vb := ra[wl.name][spec.name], rb[wl.name][spec.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			medA, medB, _, v := judge(spec, va, vb)
			ratio := fmt.Sprintf("%.4fx of %.6g", medB/medA, medA)
			fmt.Fprintf(w, "%-20s %-28s %14.6g %14.6g %22s %6.1f%%  %s\n",
				wl.name, spec.name, medA, medB, ratio, 100*spec.bound, v)
			worse = worse || v == verdictWorse
		}
	}
	for _, r := range b.Runs {
		if !r.Correct || r.Failed > 0 {
			fmt.Fprintf(w, "%-20s trace %d: correct=%v failed=%d of %d %s\n", r.Workload, r.Trace, r.Correct, r.Failed, r.Attempted, r.Error)
			worse = true
		}
	}
	return worse
}

func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	return compareReports(w, a, b), nil
}
