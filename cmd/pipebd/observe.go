package main

// observe.go is the CLI face of the runtime observability layer
// (internal/obs): it turns a traced cluster run's span collection into a
// Chrome trace file plus a measured utilization report, and builds the
// cost-model prediction for the same schedule so the two print
// side-by-side. The modeled half is the paper's simulator pointed at the
// numeric tiny workbench: the cluster executes real float32 kernels on
// CPU while the model predicts a GPU schedule, so absolute seconds are
// incomparable — the report compares busy/idle *fractions*, where the
// schedule shape (who waits, and how much) is the meaningful signal.

import (
	"fmt"
	"io"

	"pipebd/internal/cluster/transport"
	"pipebd/internal/cost"
	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/hw"
	"pipebd/internal/metrics"
	"pipebd/internal/model"
	"pipebd/internal/obs"
	"pipebd/internal/pipeline"
	"pipebd/internal/sched"
)

// observe is the -net-stats and -debug-addr wiring of the cluster and
// worker modes. When either flag asks for one it wraps net in the
// transport.Meter they read and starts the debug server, which serves the
// mode's counters and the meter's totals; the returned func prints the
// -net-stats line and stops the server. role names the traffic the meter
// sees; prefix starts every line the mode prints.
func observe(stdout io.Writer, prefix string, net transport.Network, role string, netStats bool, debugAddr string, counters *obs.Metrics) (transport.Network, func(), error) {
	if !netStats && debugAddr == "" {
		return net, func() {}, nil
	}
	meter := transport.NewMeter(net)
	var debug *obs.DebugServer
	if debugAddr != "" {
		var err error
		debug, err = obs.StartDebugServer(debugAddr, func(w io.Writer) {
			counters.Render(w)
			writeMeterTotals(w, role, meter.Totals())
		})
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(stdout, "%sdebug server on http://%s (/metrics, /debug/pprof/)\n", prefix, debug.Addr())
	}
	return meter, func() {
		if netStats {
			writeMeterTotals(stdout, prefix+"net: "+role, meter.Totals())
		}
		if debug != nil {
			debug.Close()
		}
	}, nil
}

// writeMeterTotals prints one transport.Meter's role-attributed byte and
// frame totals on a single line.
func writeMeterTotals(w io.Writer, role string, t transport.Totals) {
	fmt.Fprintf(w, "%s: sent %d B / %d frame(s), received %d B / %d frame(s)\n",
		role, t.SentBytes, t.SentFrames, t.RecvBytes, t.RecvFrames)
}

// tinyWorkload describes the numeric tiny workbench to the analytic cost
// model: the same teacher (Conv3x3+BN+ReLU) and student (DW3x3+PW1x1+ReLU)
// block pairs NewTinyWorkbench trains, as exact cost.Layer geometry, so
// pipeline.Run can predict the very schedule the cluster executed.
func tinyWorkload(tiny distill.TinyConfig, steps, batch int) model.Workload {
	teacher := cost.Network{Name: "tiny-teacher"}
	student := cost.Network{Name: "tiny-student"}
	h, w := tiny.Height, tiny.Width
	for b := 0; b < tiny.Blocks; b++ {
		inC := tiny.Channels
		if b == 0 {
			inC = 3
		}
		teacher.Blocks = append(teacher.Blocks, cost.Block{
			Name: fmt.Sprintf("T%d", b),
			Layers: []cost.Layer{
				{Name: "conv3", Kind: cost.Conv, InC: inC, OutC: tiny.Channels,
					InH: h, InW: w, Kernel: 3, Stride: 1, Pad: 1},
				{Name: "bn", Kind: cost.BatchNorm, InC: tiny.Channels, OutC: tiny.Channels, InH: h, InW: w},
				{Name: "relu", Kind: cost.Act, InC: tiny.Channels, OutC: tiny.Channels, InH: h, InW: w},
			},
		})
		student.Blocks = append(student.Blocks, cost.Block{
			Name: fmt.Sprintf("S%d", b),
			Layers: []cost.Layer{
				{Name: "dw3", Kind: cost.DWConv, InC: inC, OutC: inC,
					InH: h, InW: w, Kernel: 3, Stride: 1, Pad: 1},
				{Name: "pw1", Kind: cost.Conv, InC: inC, OutC: tiny.Channels,
					InH: h, InW: w, Kernel: 1, Stride: 1, Bias: true},
				{Name: "relu", Kind: cost.Act, InC: tiny.Channels, OutC: tiny.Channels, InH: h, InW: w},
			},
		})
	}
	return model.Workload{
		Name:    "tiny-workbench",
		Teacher: model.Model{Net: teacher, Units: teacher.Blocks},
		Student: model.Model{Net: student, Units: student.Blocks},
		// The synthetic dataset is raw in-memory float32; give it a raw
		// storage profile with negligible decode cost.
		Data: dataset.Spec{
			Name:             "tiny-random",
			NumTrain:         steps * batch,
			Channels:         3,
			Height:           tiny.Height,
			Width:            tiny.Width,
			StorageBytes:     int64(3 * tiny.Height * tiny.Width),
			DecodeCPUSeconds: 1e-7,
		},
	}
}

// transformerWorkload describes the numeric transformer workbench to the
// analytic cost model: the same embed-plus-encoder-layer blocks
// NewTransformerWorkbench trains, via the model package's transformer
// family, so pipeline.Run can predict the very schedule the cluster
// executed. The teacher and student geometries differ only in MLP width,
// exactly like the workbench.
func transformerWorkload(cfg distill.TransformerConfig, steps, batch int) model.Workload {
	teacher := model.TransformerGeom{Blocks: cfg.Blocks, Dim: cfg.Dim, Heads: cfg.Heads,
		FF: cfg.TeacherFF, SeqLen: cfg.SeqLen, Vocab: cfg.Vocab, Classes: cfg.Classes}
	student := teacher
	student.FF = cfg.StudentFF
	return model.Workload{
		Name:                 "transformer-workbench",
		Teacher:              model.TransformerEncoder("transformer-teacher", teacher),
		Student:              model.TransformerEncoder("transformer-student", student),
		Data:                 dataset.TokensSynthetic(steps*batch, cfg.SeqLen),
		LSAtBlockGranularity: true,
	}
}

// modeledReport predicts the traced schedule with the cost-model
// simulator on a homogeneous A6000 system of the same device count. It
// returns nil with a reason when the model cannot shard the batch the way
// the numeric engine did (the simulator splits every group's batch
// evenly, so non-divisible configurations would model a different
// schedule than the one measured).
func modeledReport(plan sched.Plan, dpu bool, nDev, steps, batch int, wl model.Workload) (*metrics.Report, string) {
	if batch%nDev != 0 {
		return nil, fmt.Sprintf("modeled comparison skipped: global batch %d not divisible by %d devices", batch, nDev)
	}
	for _, g := range plan.Groups {
		if batch%g.Split() != 0 {
			return nil, fmt.Sprintf("modeled comparison skipped: global batch %d not divisible by the %d-way split group", batch, g.Split())
		}
	}
	sys := hw.Homogeneous(fmt.Sprintf("%dx RTX A6000 (modeled)", nDev), nDev,
		hw.RTXA6000(), hw.PCIe4(), hw.EPYC7302Host())
	prog := sched.TeacherRelaying(plan, dpu)
	prog.Name = "tr-modeled"
	rep, _ := pipeline.Run(pipeline.Config{
		Workload:    wl,
		System:      sys,
		GlobalBatch: batch,
		MaxSteps:    steps,
	}, prog)
	return &rep, ""
}

// writeTraceReport exports the collected spans as Chrome trace JSON and
// prints the measured-vs-modeled utilization report. Device tracks are
// ordered by rank; the coordinator's own track rides along in the trace
// file but stays out of the per-rank comparison (the model has no
// coordinator).
func writeTraceReport(stdout io.Writer, path string, collect *obs.Collector,
	plan sched.Plan, dpu bool, nDev, steps, batch int, wl model.Workload) error {
	all, byTrack := collect.Tracks()
	if err := obs.WriteChromeTraceFile(path, all, byTrack); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(stdout, "pipebd: wrote Chrome trace (%s) to %s — load it in chrome://tracing or https://ui.perfetto.dev\n",
		collect, path)
	order := make([]string, nDev)
	for i := range order {
		order[i] = fmt.Sprintf("dev%d", i)
	}
	modeled, skip := modeledReport(plan, dpu, nDev, steps, batch, wl)
	fmt.Fprint(stdout, metrics.UtilizationReport(metrics.Measured(order, byTrack), modeled))
	if skip != "" {
		fmt.Fprintf(stdout, "pipebd: %s\n", skip)
	}
	return nil
}
