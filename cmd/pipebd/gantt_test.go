package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGanttFlagErrors(t *testing.T) {
	cases := [][]string{
		{"gantt", "-workload", "mnist"},                         // unknown workload
		{"gantt", "-system", "tpu"},                             // unknown system
		{"gantt", "-strategy", "magic"},                         // unknown strategy
		{"gantt", "-steps", "0"},                                // non-positive steps
		{"gantt", "-batch", "0"},                                // non-positive batch
		{"gantt", "-batch", "2", "-strategy", "DP"},             // fewer samples than devices
		{"gantt", "-width"},                                     // missing value
		{"gantt", "stray"},                                      // positional junk
		{"gantt", "-in", "a.json", "-out", "b.json"},            // two directions at once
		{"gantt", "-in", filepath.Join("absent", "trace.json")}, // no such file
	}
	for _, args := range cases {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestGanttEndToEnd renders a timeline for every strategy and checks the
// Gantt header and device tracks appear.
func TestGanttEndToEnd(t *testing.T) {
	for _, strategy := range []string{"DP", "LS", "TR", "TR+DPU", "TR+IR", "TR+DPU+AHD"} {
		var out strings.Builder
		args := []string{"gantt", "-workload", "nas-imagenet", "-strategy", strategy, "-steps", "3", "-width", "80"}
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

// TestGanttHelpPrintsUsage: -h must print flag documentation and
// surface flag.ErrHelp (main exits 0 on it).
func TestGanttHelpPrintsUsage(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"gantt", "-h"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("gantt -h: got %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(out.String(), "-strategy") {
		t.Fatalf("-h output missing flag docs:\n%s", out.String())
	}
}

// TestGanttOutThenIn: a simulated schedule written with -out draws,
// through -in, the chart the simulation printed; a file that is not a
// trace is an error, not a chart.
func TestGanttOutThenIn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sim.json")
	var sim, measured strings.Builder
	if err := run([]string{"gantt", "-strategy", "TR+DPU", "-steps", "3", "-width", "90", "-out", path}, &sim); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"gantt", "-in", path, "-width", "90"}, &measured); err != nil {
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
	if err := run([]string{"gantt", "-in", bad}, &strings.Builder{}); err == nil {
		t.Fatal("a malformed trace file was drawn")
	}
}
