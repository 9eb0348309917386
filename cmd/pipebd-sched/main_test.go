package main

import (
	"strings"
	"testing"
)

func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-workload", "mnist"}, // unknown workload
		{"-system", "tpu"},     // unknown system
		{"-batch", "0"},        // non-positive batch
		{"-batch", "-5"},       // negative batch
		{"-batch", "2"},        // fewer samples than devices
		{"-batch"},             // missing value
		{"stray"},              // positional junk
	}
	for _, args := range cases {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunEndToEnd invokes the explorer once per workload family and
// checks the report's load-bearing sections are present.
func TestRunEndToEnd(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-workload", "nas-cifar10", "-system", "a6000", "-batch", "256"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{"Profile:", "global batch 256", "TR plan", "AHD plan", "B0"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}

	out.Reset()
	if err := run([]string{"-workload", "compression-imagenet", "-system", "2080ti"}, &out); err != nil {
		t.Fatalf("run (compression): %v", err)
	}
	if !strings.Contains(out.String(), "AHD plan") {
		t.Errorf("compression output missing AHD plan:\n%s", out.String())
	}
}

// TestHelpPrintsUsage: -h must print flag documentation and succeed.
func TestHelpPrintsUsage(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-h"}, &out); err != nil {
		t.Fatalf("run(-h): %v", err)
	}
	if !strings.Contains(out.String(), "-workload") {
		t.Fatalf("-h output missing flag docs:\n%s", out.String())
	}
}
