// Command pipebd-sched is the schedule explorer: it profiles a workload
// on a system (the paper's pre-training profiling step), prints the
// per-block execution-time table at every feasible batch split, and
// reports the schedules chosen by plain teacher relaying and by automatic
// hybrid distribution, with their estimated bottlenecks.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"pipebd/internal/hw"
	"pipebd/internal/metrics"
	"pipebd/internal/model"
	"pipebd/internal/profilegen"
	"pipebd/internal/sched"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "pipebd-sched: %v\n", err)
		os.Exit(2)
	}
}

// run parses args and writes the schedule report to stdout. Split from
// main for the smoke tests.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pipebd-sched", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	workload := fs.String("workload", "nas-cifar10",
		"workload: nas-cifar10|nas-imagenet|compression-cifar10|compression-imagenet|transformer-tokens")
	system := fs.String("system", "a6000", "system preset: a6000|2080ti")
	batch := fs.Int("batch", 256, "global batch size")
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
	if *batch <= 0 {
		return fmt.Errorf("-batch must be positive, got %d", *batch)
	}

	w, err := model.ByName(*workload)
	if err != nil {
		return err
	}
	sys, err := hw.Preset(*system)
	if err != nil {
		return err
	}

	n := sys.NumDevices()
	prof := profilegen.Measure(w, sys.GPUs[0], *batch, n, 100)

	fmt.Fprintf(stdout, "Profile: %s on %s, global batch %d (times per step, ms)\n\n", w.Name, sys.Name, *batch)
	header := []string{"block", "T.fwd x1", "S.train x1", "x2 split", "x4 split", "student MB"}
	var rows [][]string
	for b := 0; b < prof.NumBlocks(); b++ {
		rows = append(rows, []string{
			fmt.Sprintf("B%d", b),
			fmt.Sprintf("%.2f", prof.TeacherFwd[b][0]*1e3),
			fmt.Sprintf("%.2f", (prof.StudentFwd[b][0]+prof.StudentBwd[b][0])*1e3),
			fmt.Sprintf("%.2f", prof.StepTime(b, 2)*1e3),
			fmt.Sprintf("%.2f", prof.StepTime(b, 4)*1e3),
			fmt.Sprintf("%.0f", float64(prof.StudentMem[b][0])/(1<<20)),
		})
	}
	fmt.Fprint(stdout, metrics.Table(header, rows))

	tr := sched.TRContiguous(prof, n)
	ahd := sched.AHD(prof, sys)
	fmt.Fprintf(stdout, "\nTR plan  : %s\n", tr.Describe())
	fmt.Fprintf(stdout, "AHD plan : %s\n", ahd.Describe())
	return nil
}
