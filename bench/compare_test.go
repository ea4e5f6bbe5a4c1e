package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricSpec{name: "lat_ms", unit: "ms", better: "lower", bound: 0.10}
	higher := metricSpec{name: "rate", unit: "1/s", better: "higher", bound: 0.07}
	steady := []float64{100, 101, 99, 100, 100.5, 99.5}
	noisy := []float64{80, 120, 95, 130, 70, 105} // IQR far beyond any bound
	for _, tc := range []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"single runs within the bound", lower, []float64{100}, []float64{109}, verdictOK},
		{"single runs beyond the bound", lower, []float64{100}, []float64{111}, verdictWorse},
		{"an improvement is ok", lower, []float64{100}, []float64{50}, verdictOK},
		{"higher-is-better falls too far", higher, []float64{1000}, []float64{920}, verdictWorse},
		{"higher-is-better rises", higher, []float64{1000}, []float64{2000}, verdictOK},
		{"steady base, clear regression", lower, steady, []float64{115, 116, 114, 115}, verdictWorse},
		{"noisy base hides the answer", lower, noisy, []float64{100, 104, 98}, verdictUnresolved},
		{"noisy base, regression still unresolved", lower, noisy, []float64{125, 90, 140}, verdictUnresolved},
		{"noisy base but every run better", lower, noisy, []float64{60, 65, 62}, verdictOK},
	} {
		if _, _, _, got := judge(tc.spec, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func oneRun(workload string, trace int, values map[string]float64) runReport {
	r := runReport{Workload: workload, Trace: trace, Correct: true, Attempted: 10, Metrics: map[string]metricValue{}}
	for k, v := range values {
		r.Metrics[k] = metricValue{Value: v, Unit: "x"}
	}
	return r
}

func TestCompareReports(t *testing.T) {
	a := report{Runs: []runReport{
		oneRun("live-watch", 0, map[string]float64{"event_to_rule_p50_ms": 20, "heap_mb": 100}),
		oneRun("live-watch", 1, map[string]float64{"event_to_rule_p50_ms": 999}), // traced: ignored
	}}
	same := report{Runs: []runReport{oneRun("live-watch", 0, map[string]float64{"event_to_rule_p50_ms": 20.5, "heap_mb": 99})}}
	slow := report{Runs: []runReport{oneRun("live-watch", 0, map[string]float64{"event_to_rule_p50_ms": 30, "heap_mb": 99})}}

	var out bytes.Buffer
	if compareReports(&out, a, same) {
		t.Errorf("equal reports judged worse:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "1.0250x of 20") {
		t.Errorf("ratio is not printed with its base:\n%s", out.String())
	}
	if strings.Contains(out.String(), "999") {
		t.Errorf("traced values leaked into the comparison:\n%s", out.String())
	}

	out.Reset()
	if !compareReports(&out, a, slow) {
		t.Errorf("a 50%% slower median was not judged worse:\n%s", out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("no %q row:\n%s", verdictWorse, out.String())
	}

	failed := same
	failed.Runs = []runReport{same.Runs[0]}
	failed.Runs[0].Failed = 3
	if out.Reset(); !compareReports(&out, a, failed) {
		t.Error("a run with failed operations must fail the comparison")
	}
}
