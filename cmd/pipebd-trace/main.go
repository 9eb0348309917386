// Command pipebd-trace draws an ASCII Gantt timeline of a simulated
// training schedule — the textual analogue of the paper's Fig. 3 and
// Fig. 5b/5c schedule illustrations — or, with -in, of a measured run's
// Chrome trace file (written by pipebd -trace-out or pipebd-worker
// -trace-dir). Both are drawn by the same chart from the same spans; -out
// writes the simulated schedule as a Chrome trace file, so the model's
// prediction opens in chrome://tracing or Perfetto beside a real run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"pipebd/internal/hw"
	"pipebd/internal/model"
	"pipebd/internal/obs"
	"pipebd/internal/pipeline"
	"pipebd/internal/sim"
	"pipebd/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "pipebd-trace: %v\n", err)
		os.Exit(2)
	}
}

// run parses args and writes the Gantt timeline to stdout. Split from
// main for the smoke tests.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pipebd-trace", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	workload := fs.String("workload", "nas-imagenet",
		"workload: nas-cifar10|nas-imagenet|compression-cifar10|compression-imagenet|transformer-tokens")
	system := fs.String("system", "a6000", "system preset: a6000|2080ti")
	strategy := fs.String("strategy", "TR+DPU+AHD", "DP|LS|TR|TR+DPU|TR+IR|TR+DPU+AHD")
	batch := fs.Int("batch", 256, "global batch size")
	steps := fs.Int("steps", 5, "steps to simulate")
	width := fs.Int("width", 120, "chart width in characters")
	in := fs.String("in", "", "draw this Chrome trace file of a measured run instead of simulating")
	out := fs.String("out", "", "also write the simulated schedule to this Chrome trace file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(stdout, "Usage of %s:\n", fs.Name())
			fs.SetOutput(stdout)
			fs.PrintDefaults()
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *steps <= 0 || *batch <= 0 || *width <= 0 {
		return fmt.Errorf("-steps, -batch, and -width must be positive")
	}
	if *in != "" && *out != "" {
		return fmt.Errorf("-in draws a measured run; -out writes a simulated one")
	}

	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		order, byTrack, err := obs.ReadChromeTrace(f)
		if err != nil {
			return fmt.Errorf("%s: %w", *in, err)
		}
		fmt.Fprintf(stdout, "%s: %d tracks\n\n", *in, len(order))
		fmt.Fprint(stdout, trace.Gantt(order, byTrack, 0, 1, *width))
		return nil
	}

	w, err := model.ByName(*workload)
	if err != nil {
		return err
	}
	sys, err := hw.Preset(*system)
	if err != nil {
		return err
	}
	if *batch < sys.NumDevices() {
		return fmt.Errorf("-batch %d: must be at least the %d devices of %s", *batch, sys.NumDevices(), sys.Name)
	}
	rung, err := pipeline.Strategy(pipeline.Config{Workload: w, System: sys, GlobalBatch: *batch,
		MaxSteps: *steps, Record: true}, *strategy)
	if err != nil {
		return err
	}
	report, tracks := rung.Run()
	order, byTrack := sim.Spans(append(tracks.Devs, tracks.Loader))
	if *out != "" {
		if err := obs.WriteChromeTraceFile(*out, order, byTrack); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "%s / %s / %s\nschedule: %s\n\n", w.Name, sys.Name, *strategy, report.ScheduleDesc)
	fmt.Fprint(stdout, trace.Gantt(order, byTrack, 0, 1, *width))
	return nil
}
