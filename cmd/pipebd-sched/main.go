// Command pipebd-sched is the schedule explorer: it prices a workload on
// a system block by block (the paper's pre-training profiling step, read
// from sched.Price, the table the planners search), prints the per-block
// step time alone, split two ways and split over every device, and
// reports the schedules chosen by plain teacher relaying and by automatic
// hybrid distribution.
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
	w, err := model.ByName(*workload)
	if err != nil {
		return err
	}
	sys, err := hw.Preset(*system)
	if err != nil {
		return err
	}
	if *batch <= 0 || *batch < sys.NumDevices() {
		return fmt.Errorf("-batch %d: must be at least the %d devices of %s", *batch, sys.NumDevices(), sys.Name)
	}

	tr := sched.TRContiguous(w, sys, *batch)
	ahd := sched.AHD(w, sys, *batch)

	// One block alone on the first k devices, as a relayed stage (no
	// teacher prefix) at equal shares; the slowest member is the price,
	// and memory is modelled as for the relay programs the plans become.
	n := sys.NumDevices()
	relayed := func(b, k int) sched.Stage {
		devs := make([]int, k)
		for i := range devs {
			devs[i] = i
		}
		return sched.Stage{Group: sched.Group{Devices: devs, Blocks: []int{b}}, Relayed: true}
	}
	var rows [][]string
	for b := 0; b < w.NumBlocks(); b++ {
		row := []string{fmt.Sprintf("B%d", b)}
		for _, k := range []int{1, 2, n} {
			members, err := sched.Price(w, sys, *batch, relayed(b, k))
			if err != nil {
				return fmt.Errorf("pricing block %d split %d ways: %w", b, k, err)
			}
			slowest := members[0]
			for _, m := range members[1:] {
				if m.Compute() > slowest.Compute() {
					slowest = m
				}
			}
			if k == 1 {
				row = append(row, fmt.Sprintf("%.2f", slowest.Teacher()*1e3), fmt.Sprintf("%.2f", slowest.Student()*1e3))
			} else {
				row = append(row, fmt.Sprintf("%.2f", slowest.Compute()*1e3))
			}
		}
		mem := sched.Memory(w, sched.TeacherRelaying(tr, true).Model, []sched.Stage{relayed(b, 1)}, 0, *batch)
		rows = append(rows, append(row, fmt.Sprintf("%.0f", float64(mem)/(1<<20))))
	}
	fmt.Fprintf(stdout, "Profile: %s on %s, global batch %d (times per step, ms)\n\n", w.Name, sys.Name, *batch)
	header := []string{"block", "T.fwd x1", "S.train x1", "x2 split", fmt.Sprintf("x%d split", n), "memory MB"}
	fmt.Fprint(stdout, metrics.Table(header, rows))
	fmt.Fprintf(stdout, "\nTR plan  : %s\n", tr.Describe())
	fmt.Fprintf(stdout, "AHD plan : %s\n", ahd.Describe())
	return nil
}
