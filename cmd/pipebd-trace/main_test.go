package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-workload", "mnist"},              // unknown workload
		{"-system", "tpu"},                  // unknown system
		{"-strategy", "magic"},              // unknown strategy
		{"-steps", "0"},                     // non-positive steps
		{"-batch", "0"},                     // non-positive batch
		{"-batch", "2", "-strategy", "DP"},  // fewer samples than devices
		{"-width"},                          // missing value
		{"stray"},                           // positional junk
		{"-in", "a.json", "-out", "b.json"}, // two directions at once
		{"-in", filepath.Join("absent", "trace.json")}, // no such file
	}
	for _, args := range cases {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunEndToEnd renders a timeline for every strategy and checks the
// Gantt header and device tracks appear.
func TestRunEndToEnd(t *testing.T) {
	for _, strategy := range []string{"DP", "LS", "TR", "TR+DPU", "TR+IR", "TR+DPU+AHD"} {
		var out strings.Builder
		args := []string{"-workload", "nas-imagenet", "-strategy", strategy, "-steps", "3", "-width", "80"}
		if err := run(args, &out); err != nil {
			t.Fatalf("run(%s): %v", strategy, err)
		}
		got := out.String()
		if !strings.Contains(got, "schedule:") {
			t.Errorf("%s output missing schedule header:\n%s", strategy, got)
		}
		if !strings.Contains(got, "gpu0") || !strings.Contains(got, "loader") {
			t.Errorf("%s output has no device/loader tracks:\n%s", strategy, got)
		}
	}
}

// TestHelpPrintsUsage: -h must print flag documentation and succeed.
func TestHelpPrintsUsage(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-h"}, &out); err != nil {
		t.Fatalf("run(-h): %v", err)
	}
	if !strings.Contains(out.String(), "-strategy") {
		t.Fatalf("-h output missing flag docs:\n%s", out.String())
	}
}

// TestOutThenIn: a simulated schedule written with -out draws, through
// -in, the chart the simulation printed; a file that is not a trace is
// an error, not a chart.
func TestOutThenIn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sim.json")
	var sim, measured strings.Builder
	if err := run([]string{"-strategy", "TR+DPU", "-steps", "3", "-width", "90", "-out", path}, &sim); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", path, "-width", "90"}, &measured); err != nil {
		t.Fatal(err)
	}
	chart := func(out string) string { return out[strings.Index(out, "\n\n")+2:] }
	if got, want := chart(measured.String()), chart(sim.String()); got != want || !strings.Contains(got, "gpu3") {
		t.Fatalf("-in drew\n%s\nwant the simulated chart\n%s", got, want)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"traceEvents": [{"ph": "X", "cat": "gpu"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", bad}, &strings.Builder{}); err == nil {
		t.Fatal("a malformed trace file was drawn")
	}
}
