// Command pipebd reproduces "Pipe-BD: Pipelined Parallel Blockwise
// Distillation" (DATE 2023). One binary carries the paper's workflow —
// profile the blocks, plan a schedule, train, draw what ran — as one
// subcommand per mode, each with its own flags:
//
//	pipebd exp fig4                      # one table or figure on the analytic simulator
//	pipebd exp                           # every table and figure
//	pipebd exp fig4 -system 2080ti       # alternative hardware
//	pipebd exp table2 -quick             # truncated epochs, skip the accuracy proxy
//	pipebd exp table2 -backend parallel  # multi-core numeric engine
//	pipebd profile -workload nas-imagenet   # per-block prices, the TR and AHD plans
//	pipebd gantt -strategy TR+DPU -steps 3  # a simulated schedule as a Gantt chart
//	pipebd gantt -in run.json               # a measured run's Chrome trace, same chart
//	pipebd worker -listen 127.0.0.1:7710 -sessions 1 -rejoin
//	pipebd cluster 127.0.0.1:7710,127.0.0.1:7711 -cluster-plan hybrid -verify
//	pipebd resume /tmp/run1 -verify
//	pipebd compact /tmp/run1
//
// A flag belongs to the modes that read it: given to any other mode it
// fails to parse. Flags and positional arguments may interleave, and
// "pipebd MODE -h" lists the mode's flags.
//
// exp regenerates the paper's tables and figures; table2 also trains the
// real float32 engine for its accuracy proxy. -backend selects the tensor
// compute backend of every numeric run ("serial" is the single-threaded
// reference, "parallel" row-partitions GEMMs across a pool sized by
// GOMAXPROCS); backends are bit-identical by contract, so only
// wall-clock depends on the choice.
//
// profile is the paper's profiling step: it prices a workload block by
// block (sched.Price, the table the planners search) alone, split two
// ways and split over every device, and prints the schedules plain
// teacher relaying and automatic hybrid distribution choose. gantt draws
// any schedule of the ladder (-out also writes it as a Chrome trace), or
// with -in the trace of a measured run (cluster -trace-out, worker
// -trace-dir), with the same chart.
//
// cluster trains the numeric workbench across worker processes (pipebd
// worker) and, with -verify, re-runs the same schedule in-process and
// requires the loss trajectory and trained weights to match bit for bit:
//
//	pipebd cluster 127.0.0.1:7710 -cluster-plan tr -verify
//	pipebd cluster 127.0.0.1:7710,127.0.0.1:7711 \
//	    -max-restarts 2 -chaos-kills 1 -chaos-seed 7 -verify
//
// -topology says how the one data plane — forwarded activations and
// gradient all-reduces — is carried: "ring" (the default) dials every
// peer edge worker to worker, leaving the coordinator a control plane;
// "hub" relays every edge through the coordinator, which forwards the
// frames unopened. Under both the first stage regenerates its batches
// from the run's data recipe, and both are bit-identical to the
// in-process pipeline.
//
// Fault tolerance has three tiers (package cluster says how each works).
// -retry-budget D lets a broken link reconnect and replay its missed
// frames, and degrades a peer edge that stays down to hub relay.
// -max-restarts N restarts every device from the newest step all of them
// snapshotted when a worker is lost or silent past -cluster-heartbeat.
// -ledger DIR makes the run durable, so the coordinator itself can die:
//
//	pipebd cluster 127.0.0.1:7710,127.0.0.1:7711 -ledger /tmp/run1
//	# ... the coordinator dies mid-run (crash, OOM, kill -9) ...
//	pipebd resume /tmp/run1 -verify
//
// resume re-places every device on the manifest's workers (or on the
// addresses given after the directory; start workers with -rejoin) and
// finishes bit-identical to an uninterrupted run; -cluster-plan,
// -cluster-model, -cluster-steps and -topology given to resume are
// checked against the manifest. compact rewrites a ledger's record log as
// one checkpoint per plan generation, which resumes bit-identically too.
// -snapshot-interval k trades snapshot traffic for replay length.
// -repartition moves the boundaries between runs of unsplit groups
// mid-run when measured block times predict a better split. The chaos
// flags (-chaos-kills, -chaos-flaps, -chaos-partition) inject seeded
// faults for -verify to prove the recovery bit-identical.
//
// Observability: -trace-out FILE records every device's per-step spans,
// writes them as Chrome trace-event JSON (chrome://tracing or
// https://ui.perfetto.dev) and prints measured utilization beside the
// cost model's prediction of the same schedule. -net-stats prints the
// transport totals a process's meter saw (the coordinator's control
// plane, a worker's direct peer links); -debug-addr HOST:PORT serves
// net/http/pprof and a plain-text /metrics page while the mode runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"pipebd/internal/experiments"
	"pipebd/internal/hw"
	"pipebd/internal/model"
	"pipebd/internal/tensor"
)

// A command is one mode's options: flags binds them to the mode's own
// flag set, and run executes the mode on its positional arguments.
type command interface {
	flags(fs *flag.FlagSet)
	run(args []string, stdout io.Writer) error
}

// mode is one subcommand: its synopsis, how many positional arguments it
// takes, and the options it parses its flags into.
type mode struct {
	name, args, summary string
	min, max            int
	new                 func() command
}

var modes = []mode{
	{"exp", "[NAME]", "regenerate the paper's tables and figures on the analytic simulator: " + strings.Join(expNames(), "|") + "|all (default all)",
		0, 1, func() command { return &expOptions{} }},
	{"profile", "", "price a workload block by block and print the TR and AHD plans",
		0, 0, func() command { return &profileOptions{} }},
	{"gantt", "", "draw a simulated schedule, or with -in a measured run's Chrome trace, as a Gantt chart",
		0, 0, func() command { return &ganttOptions{} }},
	{"cluster", "ADDR[,ADDR...]", "train the numeric workbench across the worker processes at these addresses",
		1, 1, func() command { return &clusterOptions{} }},
	{"resume", "DIR [ADDR[,ADDR...]]", "restart a killed coordinator from its ledger directory, optionally on other workers",
		1, 2, func() command { return &resumeOptions{} }},
	{"compact", "DIR", "rewrite a ledger's record log as one checkpoint per plan generation",
		1, 1, func() command { return compactOptions{} }},
	{"worker", "", "host pipeline devices for a cluster or resume coordinator",
		0, 0, func() command { return &workerOptions{} }},
}

func main() {
	c, args, err := parse(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipebd: %v\n", err)
		os.Exit(2)
	}
	if err := c.run(args, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "pipebd: %v\n", err)
		os.Exit(1)
	}
}

// flagSet builds the mode's flag set, bound to a fresh command.
func (m mode) flagSet() (*flag.FlagSet, command) {
	fs := flag.NewFlagSet("pipebd "+m.name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := m.new()
	c.flags(fs)
	return fs, c
}

// parseFlags parses args with fs, letting flags and positional arguments
// interleave, and returns the positional ones.
func parseFlags(fs *flag.FlagSet, args []string) ([]string, error) {
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		if fs.NArg() == 0 {
			return pos, nil
		}
		pos, args = append(pos, fs.Arg(0)), fs.Args()[1:]
	}
}

// parse selects the mode args[0] names and parses the rest with that
// mode's flag set. -h prints the usage to stdout and returns
// flag.ErrHelp.
func parse(args []string, stdout io.Writer) (command, []string, error) {
	i := slices.IndexFunc(modes, func(m mode) bool { return len(args) > 0 && m.name == args[0] })
	if i < 0 {
		usage := "usage: pipebd MODE [flags] [args]; pipebd MODE -h lists a mode's flags\n\nmodes:\n"
		for _, m := range modes {
			usage += fmt.Sprintf("  %-8s %-21s %s\n", m.name, m.args, m.summary)
		}
		if len(args) == 1 && slices.Contains([]string{"help", "-h", "-help", "--help"}, args[0]) {
			fmt.Fprint(stdout, usage)
			return nil, nil, flag.ErrHelp
		}
		return nil, nil, errors.New(usage)
	}
	m := modes[i]
	fs, c := m.flagSet()
	pos, err := parseFlags(fs, args[1:])
	if errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(stdout, "usage: pipebd %s [flags] %s\n%s\n\nflags:\n", m.name, m.args, m.summary)
		fs.SetOutput(stdout)
		fs.PrintDefaults()
	}
	if err != nil {
		return nil, nil, err
	}
	if len(pos) < m.min || len(pos) > m.max {
		return nil, nil, fmt.Errorf("usage: pipebd %s [flags] %s (got arguments %q)", m.name, m.args, pos)
	}
	return c, pos, nil
}

// systemFlags are -system and -batch, shared by every mode that prices or
// simulates a workload on a system preset.
type systemFlags struct {
	system string
	batch  int
}

func (f *systemFlags) bind(fs *flag.FlagSet) {
	fs.StringVar(&f.system, "system", "a6000", "system preset: a6000|2080ti")
	fs.IntVar(&f.batch, "batch", 256, "global batch size")
}

// lookup resolves -system and rejects a -batch the system cannot share.
func (f systemFlags) lookup() (hw.System, error) {
	sys, err := hw.Preset(f.system)
	if err == nil {
		err = checkBatch(f.batch, sys)
	}
	return sys, err
}

// checkBatch rejects a global batch the system cannot share: every
// device of a data-parallel group needs at least one sample.
func checkBatch(batch int, sys hw.System) error {
	if batch <= 0 || batch < sys.NumDevices() {
		return fmt.Errorf("-batch %d: must be at least the %d devices of %s", batch, sys.NumDevices(), sys.Name)
	}
	return nil
}

// workloadFlags add -workload to systemFlags.
type workloadFlags struct {
	systemFlags
	workload string
}

func (f *workloadFlags) bind(fs *flag.FlagSet, workload string) {
	fs.StringVar(&f.workload, "workload", workload,
		"workload: nas-cifar10|nas-imagenet|compression-cifar10|compression-imagenet|transformer-tokens")
	f.systemFlags.bind(fs)
}

func (f workloadFlags) lookup() (model.Workload, hw.System, error) {
	w, err := model.ByName(f.workload)
	if err != nil {
		return model.Workload{}, hw.System{}, err
	}
	sys, err := f.systemFlags.lookup()
	return w, sys, err
}

// useBackend makes the named -backend the process's tensor backend.
func useBackend(name string) error {
	be, ok := tensor.Lookup(name)
	if !ok {
		return fmt.Errorf("unknown backend %q (want %s)", name, strings.Join(tensor.Backends(), " or "))
	}
	tensor.SetDefault(be)
	return nil
}

func backendFlag(fs *flag.FlagSet, name *string) {
	fs.StringVar(name, "backend", "serial", "tensor compute backend: "+strings.Join(tensor.Backends(), "|"))
}

// experimentTable registers every exp name, in the order "all" prints
// them: an experiment renders its text table and, where the figure has
// one, the ASCII chart -chart appends.
var experimentTable = []struct {
	name string
	run  func(sys hw.System, o experiments.Options, quick bool) (table, chart string)
}{
	{"table1", func(hw.System, experiments.Options, bool) (string, string) { return experiments.Table1(), "" }},
	{"fig2", figure(experiments.Fig2, experiments.FormatFig2, experiments.ChartFig2)},
	{"fig4", figure(experiments.Fig4, experiments.FormatFig4, experiments.ChartFig4)},
	{"fig5", func(_ hw.System, o experiments.Options, _ bool) (string, string) {
		return experiments.FormatFig5(experiments.Fig5(o)), ""
	}},
	{"fig6", figure(experiments.Fig6, experiments.FormatFig6, experiments.ChartFig6)},
	{"fig7", figure(experiments.Fig7, experiments.FormatFig7, experiments.ChartFig7)},
	{"table2", func(sys hw.System, o experiments.Options, quick bool) (string, string) {
		return experiments.FormatTable2(experiments.Table2(sys, o, quick)), ""
	}},
}

// figure is the entry of a figure that has a chart.
func figure[R any](run func(hw.System, experiments.Options) R, format, chart func(R) string) func(hw.System, experiments.Options, bool) (string, string) {
	return func(sys hw.System, o experiments.Options, _ bool) (string, string) {
		rows := run(sys, o)
		return format(rows), chart(rows)
	}
}

func expNames() []string {
	names := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		names[i] = e.name
	}
	return names
}

// expOptions are the exp mode's flags.
type expOptions struct {
	systemFlags
	quick, chart bool
	backend      string
}

func (o *expOptions) flags(fs *flag.FlagSet) {
	o.bind(fs)
	fs.BoolVar(&o.quick, "quick", false, "truncate epochs to 40 steps and skip the accuracy proxy")
	fs.BoolVar(&o.chart, "chart", false, "append ASCII charts to figure output")
	backendFlag(fs, &o.backend)
}

func (o *expOptions) run(args []string, stdout io.Writer) error {
	name := "all"
	if len(args) > 0 {
		name = args[0]
	}
	if name != "all" && !slices.Contains(expNames(), name) {
		return fmt.Errorf("unknown experiment %q", name)
	}
	sys, err := o.lookup()
	if err == nil {
		err = useBackend(o.backend)
	}
	if err != nil {
		return err
	}
	opts := experiments.Options{Batch: o.batch}
	if o.quick {
		opts.MaxSteps = 40
	}
	for _, e := range experimentTable {
		if name != e.name && name != "all" {
			continue
		}
		table, ascii := e.run(sys, opts, o.quick)
		fmt.Fprintln(stdout, table)
		if o.chart && ascii != "" {
			fmt.Fprintln(stdout, ascii)
		}
	}
	return nil
}
