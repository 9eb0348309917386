// Command pipebd-trace renders an ASCII Gantt timeline of a simulated
// training schedule — the textual analogue of the paper's Fig. 3 and
// Fig. 5b/5c schedule illustrations.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"pipebd/internal/hw"
	"pipebd/internal/model"
	"pipebd/internal/pipeline"
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

	w, err := model.ByName(*workload)
	if err != nil {
		return err
	}
	sys, err := hw.Preset(*system)
	if err != nil {
		return err
	}

	rung, err := pipeline.Strategy(pipeline.Config{Workload: w, System: sys, GlobalBatch: *batch,
		MaxSteps: *steps, Record: true}, *strategy)
	if err != nil {
		return err
	}
	report, tracks := rung.Run()

	fmt.Fprintf(stdout, "%s / %s / %s\nschedule: %s\n\n", w.Name, sys.Name, *strategy, report.ScheduleDesc)
	fmt.Fprint(stdout, trace.Gantt(append(tracks.Devs, tracks.Loader), 0, report.EpochTime, *width))
	return nil
}
