package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/hw"
	"pipebd/internal/metrics"
	"pipebd/internal/model"
	"pipebd/internal/nn"
	"pipebd/internal/pipeline"
	"pipebd/internal/sched"
	"pipebd/internal/sim"
	"pipebd/internal/tensor"
	"pipebd/internal/trace"
)

// --- Table I: experimental environment --------------------------------------

// Table1 renders the experimental environment the way the paper's Table I
// does, from the hardware presets actually used by the simulator.
func Table1() string {
	var b strings.Builder
	b.WriteString("Table I — Experimental environment\n\n")
	for _, sys := range []hw.System{hw.A6000x4(), hw.RTX2080Tix4()} {
		g := sys.GPUs[0]
		fmt.Fprintf(&b, "%s\n", sys.Name)
		fmt.Fprintf(&b, "  GPU          %d x %s (%.1f TFLOPS FP32, %.0f GB/s eff., %d GiB)\n",
			sys.NumDevices(), g.Name, g.PeakFLOPS/1e12, g.MemBandwidth/1e9, g.MemBytes>>30)
		fmt.Fprintf(&b, "  CPU/host     %s (loader %.1f GB/s, %.1f ms/batch overhead)\n",
			sys.Host.Name, sys.Host.StorageBandwidth/1e9, sys.Host.PerBatchOverhead*1e3)
		fmt.Fprintf(&b, "  Interconnect %s (%.0f GB/s, %.0f us)\n\n",
			sys.Link.Name, sys.Link.BandwidthBytes/1e9, sys.Link.Latency*1e6)
	}
	b.WriteString("Workloads\n")
	b.WriteString("  NAS          teacher MobileNetV2, student ProxylessNAS supernet (kernel 3/5/7, expansion 3/6)\n")
	b.WriteString("  Compression  teacher VGG-16, student DS-Conv replacements\n")
	return b.String()
}

// --- Table II: training results ---------------------------------------------

// Table2Row is one row of Table II.
type Table2Row struct {
	Task, Dataset string

	TeacherName   string
	TeacherParams float64 // millions
	TeacherMACs   float64 // millions

	StudentName   string
	StudentParams float64
	StudentMACs   float64

	DPEpoch, LSEpoch, PipeBDEpoch float64 // seconds

	// Accuracy of the miniature numeric proxy (agreement with the
	// teacher's labels on held-out data), identical for baseline and
	// Pipe-BD training by construction — the paper's "same accuracy,
	// shorter time" claim. Negative when accuracy evaluation is skipped.
	SeqAccuracy, PipeBDAccuracy float64
}

// Table2 reproduces Table II: model statistics from the zoo, per-epoch
// elapsed times from the simulator, and the training-quality proxy from
// the numeric engine (unless skipAccuracy).
func Table2(sys hw.System, o Options, skipAccuracy bool) []Table2Row {
	found := map[string]model.Model{
		"nas-cifar10":  model.ProxylessNASFound(false, 10),
		"nas-imagenet": model.ProxylessNASFound(true, 1000),
	}
	studentName := map[string]string{
		"nas-cifar10": "ProxylessNAS", "nas-imagenet": "ProxylessNAS",
		"compression-cifar10": "DS-Conv", "compression-imagenet": "DS-Conv",
	}
	var rows []Table2Row
	seqAcc, pbdAcc := -1.0, -1.0
	if !skipAccuracy {
		seqAcc, pbdAcc = accuracyProxy()
	}
	for _, w := range model.AllWorkloads() {
		reps := runAll(w, sys, o)
		student := w.Student.Net
		if f, ok := found[w.Name]; ok {
			student = f.Net // Table II reports the found architecture
		}
		task, ds := "NAS", "Cifar-10"
		if strings.HasPrefix(w.Name, "compression") {
			task = "Compression"
		}
		if strings.HasSuffix(w.Name, "imagenet") {
			ds = "ImageNet"
		}
		rows = append(rows, Table2Row{
			Task: task, Dataset: ds,
			TeacherName:    strings.SplitN(w.Teacher.Net.Name, "-", 2)[0],
			TeacherParams:  float64(w.Teacher.Net.ParamCount()) / 1e6,
			TeacherMACs:    w.Teacher.Net.MACs() / 1e6,
			StudentName:    studentName[w.Name],
			StudentParams:  float64(student.ParamCount()) / 1e6,
			StudentMACs:    student.MACs() / 1e6,
			DPEpoch:        find(reps, pipeline.DP).EpochTime,
			LSEpoch:        find(reps, pipeline.LS).EpochTime,
			PipeBDEpoch:    find(reps, pipeline.AHD).EpochTime,
			SeqAccuracy:    seqAcc,
			PipeBDAccuracy: pbdAcc,
		})
	}
	return rows
}

// accuracyProxy trains the miniature numeric workload twice — once
// sequentially, once under a Pipe-BD pipeline — and evaluates both
// students' agreement with the teacher on held-out data. Bit-equivalence
// of the two schedules makes the accuracies identical.
func accuracyProxy() (seq, pipeBD float64) {
	cfg := distill.DefaultTinyConfig()
	cfg.Classes = 4

	rng := rand.New(rand.NewSource(1234))
	makeBatches := func() []dataset.Batch {
		data := dataset.NewRandom(rng, 240, 3, cfg.Height, cfg.Width, cfg.Classes)
		var all []dataset.Batch
		for epoch := 0; epoch < 8; epoch++ {
			all = append(all, data.Batches(8)...)
		}
		return all
	}
	batches := makeBatches()

	wSeq := distill.NewTinyWorkbench(cfg)
	engine.RunSequential(wSeq, batches, 0.03, 0.9)

	wPipe := distill.NewTinyWorkbench(cfg)
	plan := sched.Plan{Name: "tr", Groups: []sched.Group{
		{Devices: []int{0}, Blocks: []int{0, 1}},
		{Devices: []int{1}, Blocks: []int{2, 3}},
	}}
	engine.RunPipelined(wPipe, batches, engine.Config{Plan: plan, DPU: true, LR: 0.03, Momentum: 0.9})

	test := tensor.Rand(rand.New(rand.NewSource(99)), -1, 1, 128, 3, cfg.Height, cfg.Width)
	teacherLabels := tensor.ArgMaxRow(wSeq.TeacherForward(test).Reshape(128, cfg.Classes))
	eval := func(w *distill.Workbench) float64 {
		logits := w.StudentForward(test).Reshape(128, cfg.Classes)
		return nn.Accuracy(logits, teacherLabels)
	}
	return eval(wSeq), eval(wPipe)
}

// FormatTable2 renders Table II as text.
func FormatTable2(rows []Table2Row) string {
	header := []string{"task", "dataset", "teacher", "params", "MACs", "student", "params", "MACs",
		pipeline.DP, pipeline.LS, "Pipe-BD", "acc(seq)", "acc(pipe-bd)"}
	var body [][]string
	for _, r := range rows {
		acc1, acc2 := "-", "-"
		if r.SeqAccuracy >= 0 {
			acc1 = fmt.Sprintf("%.1f%%", r.SeqAccuracy*100)
			acc2 = fmt.Sprintf("%.1f%%", r.PipeBDAccuracy*100)
		}
		body = append(body, []string{
			r.Task, r.Dataset,
			r.TeacherName, fmt.Sprintf("%.2fM", r.TeacherParams), fmt.Sprintf("%.2fM", r.TeacherMACs),
			r.StudentName, fmt.Sprintf("%.2fM", r.StudentParams), fmt.Sprintf("%.2fM", r.StudentMACs),
			metrics.FormatSeconds(r.DPEpoch), metrics.FormatSeconds(r.LSEpoch), metrics.FormatSeconds(r.PipeBDEpoch),
			acc1, acc2,
		})
	}
	return "Table II — Parallel blockwise distillation training results\n" +
		metrics.Table(header, body) +
		"(accuracy columns: miniature numeric proxy; identical by bit-equivalence)\n"
}

// --- schedule rendering ------------------------------------------------------

// ScheduleGantt renders the steady-state Pipe-BD timeline of a workload
// under its AHD plan — the textual analogue of Fig. 5b/5c.
func ScheduleGantt(w model.Workload, sys hw.System, o Options, steps int) string {
	rung, err := pipeline.Strategy(pipeline.Config{Workload: w, System: sys, GlobalBatch: o.batch(),
		MaxSteps: steps + 2, Record: true}, pipeline.AHD)
	if err != nil {
		panic(err)
	}
	_, tracks := rung.Run()
	order, byTrack := sim.Spans(tracks.Devs)
	return trace.Gantt(order, byTrack, 0.4, 0.9, 100)
}
