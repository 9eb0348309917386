package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pipebd/internal/obs"
	"pipebd/internal/pipeline"
	"pipebd/internal/sim"
	"pipebd/internal/trace"
)

// ganttOptions are the gantt mode's flags. The mode draws an ASCII Gantt
// timeline of a simulated training schedule — the textual analogue of
// the paper's Fig. 3 and Fig. 5b/5c schedule illustrations — or, with
// -in, of a measured run's Chrome trace file (written by cluster
// -trace-out or worker -trace-dir). Both are drawn by the same chart from
// the same spans; -out writes the simulated schedule as a Chrome trace
// file, so the model's prediction opens in chrome://tracing or Perfetto
// beside a real run.
type ganttOptions struct {
	workloadFlags
	strategy     string
	steps, width int
	in, out      string
}

func (o *ganttOptions) flags(fs *flag.FlagSet) {
	o.bind(fs, "nas-imagenet")
	fs.StringVar(&o.strategy, "strategy", "TR+DPU+AHD", "DP|LS|TR|TR+DPU|TR+IR|TR+DPU+AHD")
	fs.IntVar(&o.steps, "steps", 5, "steps to simulate")
	fs.IntVar(&o.width, "width", 120, "chart width in characters")
	fs.StringVar(&o.in, "in", "", "draw this Chrome trace file of a measured run instead of simulating")
	fs.StringVar(&o.out, "out", "", "also write the simulated schedule to this Chrome trace file")
}

func (o *ganttOptions) run(_ []string, stdout io.Writer) error {
	if o.steps <= 0 || o.width <= 0 {
		return fmt.Errorf("-steps and -width must be positive")
	}
	if o.in != "" && o.out != "" {
		return fmt.Errorf("-in draws a measured run; -out writes a simulated one")
	}

	if o.in != "" {
		f, err := os.Open(o.in)
		if err != nil {
			return err
		}
		defer f.Close()
		order, byTrack, err := obs.ReadChromeTrace(f)
		if err != nil {
			return fmt.Errorf("%s: %w", o.in, err)
		}
		fmt.Fprintf(stdout, "%s: %d tracks\n\n", o.in, len(order))
		fmt.Fprint(stdout, trace.Gantt(order, byTrack, 0, 1, o.width))
		return nil
	}

	w, sys, err := o.lookup()
	if err != nil {
		return err
	}
	rung, err := pipeline.Strategy(pipeline.Config{Workload: w, System: sys, GlobalBatch: o.batch,
		MaxSteps: o.steps, Record: true}, o.strategy)
	if err != nil {
		return err
	}
	report, tracks := rung.Run()
	order, byTrack := sim.Spans(append(tracks.Devs, tracks.Loader))
	if o.out != "" {
		if err := obs.WriteChromeTraceFile(o.out, order, byTrack); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "%s / %s / %s\nschedule: %s\n\n", w.Name, sys.Name, o.strategy, report.ScheduleDesc)
	fmt.Fprint(stdout, trace.Gantt(order, byTrack, 0, 1, o.width))
	return nil
}
