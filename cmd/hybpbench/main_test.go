package main

import (
	"math"
	"testing"
)

// TestBaselineFromPinnedReport: the baseline block of a report written
// with -baseline BENCH_PR7.json is that report's cold sweep seconds and
// its BenchmarkStepHyBP ns/op, with a note naming the file and its date.
func TestBaselineFromPinnedReport(t *testing.T) {
	const path = "../../BENCH_PR7.json"
	r, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	b := baselineFrom(path, r)
	if math.Abs(b.ColdSeconds-257.59) > 0.01 {
		t.Errorf("cold_seconds = %v, want 257.59…", b.ColdSeconds)
	}
	if b.StepNsPerOp != 835 {
		t.Errorf("step_ns_per_op = %v, want 835", b.StepNsPerOp)
	}
	if want := path + ", generated 2026-08-08T01:56:14Z"; b.Note != want {
		t.Errorf("note = %q, want %q", b.Note, want)
	}
}

// TestBaselineWithoutStepBench: a pinned report that never measured the
// pipeline step leaves step_ns_per_op zero (omitted from the JSON)
// instead of failing, and still carries its cold seconds.
func TestBaselineWithoutStepBench(t *testing.T) {
	r := report{
		GeneratedAt: "2026-01-01T00:00:00Z",
		Benchmarks:  []benchEntry{{Package: "internal/tage", Name: "BenchmarkTageAccess", NsPerOp: 450}},
		Experiment:  &expTiming{ColdSeconds: 100},
	}
	b := baselineFrom("old.json", r)
	if b.StepNsPerOp != 0 || b.ColdSeconds != 100 {
		t.Fatalf("baseline = %+v, want step 0 and cold 100", b)
	}
	if b := baselineFrom("old.json", report{}); b.ColdSeconds != 0 || b.StepNsPerOp != 0 {
		t.Fatalf("baseline of an empty report = %+v, want zeros", b)
	}
}
