package main

import (
	"errors"
	"flag"
	"strings"
	"testing"
)

func TestProfileFlagErrors(t *testing.T) {
	cases := [][]string{
		{"profile", "-workload", "mnist"}, // unknown workload
		{"profile", "-system", "tpu"},     // unknown system
		{"profile", "-batch", "0"},        // non-positive batch
		{"profile", "-batch", "-5"},       // negative batch
		{"profile", "-batch", "2"},        // fewer samples than devices
		{"profile", "-batch"},             // missing value
		{"profile", "stray"},              // positional junk
	}
	for _, args := range cases {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestProfileEndToEnd profiles one workload of each family and checks
// the report's load-bearing sections are present.
func TestProfileEndToEnd(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"profile", "-workload", "nas-cifar10", "-system", "a6000", "-batch", "256"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{"Profile:", "global batch 256", "TR plan", "AHD plan", "B0"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}

	out.Reset()
	if err := run([]string{"profile", "-workload", "compression-imagenet", "-system", "2080ti"}, &out); err != nil {
		t.Fatalf("run (compression): %v", err)
	}
	if !strings.Contains(out.String(), "AHD plan") {
		t.Errorf("compression output missing AHD plan:\n%s", out.String())
	}
}

// TestProfileHelpPrintsUsage: -h must print flag documentation and
// surface flag.ErrHelp (main exits 0 on it).
func TestProfileHelpPrintsUsage(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"profile", "-h"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("profile -h: got %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(out.String(), "-workload") {
		t.Fatalf("-h output missing flag docs:\n%s", out.String())
	}
}
