// Package experiments contains one driver per table and figure of the
// paper's evaluation (§VI-§VII). Each driver assembles the workloads,
// profiles, plans, and executors, runs the simulated epochs, and returns
// typed rows plus a paper-style text rendering. The cmd/pipebd binary and
// the repository's benchmark harness are thin wrappers over this package.
package experiments

import (
	"fmt"
	"strings"

	"pipebd/internal/hw"
	"pipebd/internal/metrics"
	"pipebd/internal/model"
	"pipebd/internal/pipeline"
	"pipebd/internal/sched"
)

// Options tunes the experiment drivers.
type Options struct {
	// Batch is the global batch size (the paper's default is 256).
	Batch int
	// MaxSteps truncates simulated passes for quick runs; 0 simulates
	// full epochs (the default used for reported numbers).
	MaxSteps int
}

func (o Options) batch() int {
	if o.Batch <= 0 {
		return 256
	}
	return o.Batch
}

// runAll simulates every rung of the strategy ladder for one workload on
// one system, in the ladder's (Fig. 4) order.
func runAll(w model.Workload, sys hw.System, o Options) []metrics.Report {
	var reps []metrics.Report
	for _, r := range pipeline.Ladder(pipeline.Config{Workload: w, System: sys, GlobalBatch: o.batch(), MaxSteps: o.MaxSteps}) {
		rep, _ := r.Run()
		reps = append(reps, rep)
	}
	return reps
}

// find returns the named strategy's report.
func find(reps []metrics.Report, strategy string) metrics.Report {
	for _, r := range reps {
		if r.Strategy == strategy {
			return r
		}
	}
	panic("experiments: no strategy " + strategy)
}

// speedups renders reps as Fig. 4 rows normalized to the DP baseline,
// leaving the TR+IR ablation out when withIR is false (only Fig. 4 shows
// it).
func speedups(label string, reps []metrics.Report, withIR bool) []Fig4Row {
	dp := find(reps, pipeline.DP)
	var rows []Fig4Row
	for _, r := range reps {
		if r.Strategy == pipeline.TRIR && !withIR {
			continue
		}
		rows = append(rows, Fig4Row{Workload: label, Strategy: r.Strategy, EpochTime: r.EpochTime,
			Speedup: r.Speedup(dp), Schedule: r.ScheduleDesc})
	}
	return rows
}

// --- Fig. 2: motivational breakdown ---------------------------------------

// Fig2Row is one stacked bar of Fig. 2: per-device average seconds spent
// per epoch on loading, teacher execution, student execution, and idling.
type Fig2Row struct {
	Config                       string
	Load, Teacher, Student, Idle float64
}

// Total returns the bar height (the per-device epoch time).
func (r Fig2Row) Total() float64 { return r.Load + r.Teacher + r.Student + r.Idle }

// Fig2 reproduces the motivational experiment: the DP baseline's epoch
// breakdown versus an imaginary perfectly parallel system ("Ideal") and
// versus Pipe-BD, on NAS/CIFAR-10 with four A6000s.
func Fig2(sys hw.System, o Options) []Fig2Row {
	w := model.NAS(false)
	reps := runAll(w, sys, o)

	rows := make([]Fig2Row, 0, 3)
	l, te, s, id := find(reps, pipeline.DP).FigTwoBreakdown()
	rows = append(rows, Fig2Row{Config: "Baseline (DP)", Load: l, Teacher: te, Student: s, Idle: id})

	// Ideal: each part measured alone on one device and divided by the
	// device count — perfect parallelization, infinite memory (§III).
	rows = append(rows, idealRow(w, sys, o))

	l, te, s, id = find(reps, pipeline.AHD).FigTwoBreakdown()
	rows = append(rows, Fig2Row{Config: "Pipe-BD", Load: l, Teacher: te, Student: s, Idle: id})
	return rows
}

func idealRow(w model.Workload, sys hw.System, o Options) Fig2Row {
	batch := o.batch()
	steps := w.Data.StepsPerEpoch(batch)
	if o.MaxSteps > 0 && steps > o.MaxSteps {
		steps = o.MaxSteps
	}
	// The whole network at the full batch on device 0 alone.
	alone, err := sched.Price(w, sys, batch, sched.Stage{Group: sched.InternalRelaying(1, w.NumBlocks()).Groups[0]})
	if err != nil {
		panic(err)
	}
	teacher, student := alone[0].Teacher(), alone[0].Student()+alone[0].Update
	load := sys.Host.LoadTime(w.Data.StorageBytes*int64(batch),
		w.Data.DecodeCPUSeconds*float64(batch)) + sys.Host.PerBatchOverhead
	n := float64(sys.NumDevices())
	return Fig2Row{
		Config:  "Ideal",
		Load:    float64(steps) * load / n,
		Teacher: float64(steps) * teacher / n,
		Student: float64(steps) * student / n,
	}
}

// FormatFig2 renders Fig. 2 as a text table.
func FormatFig2(rows []Fig2Row) string {
	header := []string{"config", "load(s)", "teacher(s)", "student(s)", "idle(s)", "total(s)"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{
			r.Config,
			fmt.Sprintf("%.2f", r.Load), fmt.Sprintf("%.2f", r.Teacher),
			fmt.Sprintf("%.2f", r.Student), fmt.Sprintf("%.2f", r.Idle),
			fmt.Sprintf("%.2f", r.Total()),
		})
	}
	return "Fig. 2 — Motivational breakdown (NAS, CIFAR-10, per-device seconds/epoch)\n" +
		metrics.Table(header, body)
}

// --- Fig. 4: speedup and ablation ------------------------------------------

// Fig4Row is one bar of Fig. 4.
type Fig4Row struct {
	Workload  string
	Strategy  string
	EpochTime float64
	Speedup   float64 // over DP on the same workload
	Schedule  string
}

// Fig4 reproduces the speedup/ablation study over all four workloads on
// the given system.
func Fig4(sys hw.System, o Options) []Fig4Row {
	var rows []Fig4Row
	for _, w := range model.AllWorkloads() {
		rows = append(rows, speedups(w.Name, runAll(w, sys, o), true)...)
	}
	return rows
}

// FormatFig4 renders Fig. 4 as a text table.
func FormatFig4(rows []Fig4Row) string {
	header := []string{"workload", "strategy", "epoch", "speedup", "schedule"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{
			r.Workload, r.Strategy, metrics.FormatSeconds(r.EpochTime),
			fmt.Sprintf("%.2fx", r.Speedup), r.Schedule,
		})
	}
	return "Fig. 4 — Speedup and ablation (4x " + "GPU, normalized to DP)\n" + metrics.Table(header, body)
}

// --- Fig. 5: GPU-type sensitivity ------------------------------------------

// Fig5Result holds the per-system speedups and chosen schedules for the
// NAS/ImageNet workload, systems in the order they were run.
type Fig5Result struct {
	Rows    []Fig4Row
	Systems []Fig5System
}

// Fig5System is one system's AHD plan description and ASCII schedule.
type Fig5System struct {
	Name, Schedule, Gantt string
}

// Fig5 reproduces the GPU-type sensitivity study: the same workload
// scheduled on 4x RTX 2080Ti versus 4x RTX A6000.
func Fig5(o Options) Fig5Result {
	w := model.NAS(true)
	var res Fig5Result
	for _, sys := range []hw.System{hw.RTX2080Tix4(), hw.A6000x4()} {
		reps := runAll(w, sys, o)
		res.Rows = append(res.Rows, speedups(sys.Name, reps, false)...)
		res.Systems = append(res.Systems, Fig5System{Name: sys.Name,
			Schedule: find(reps, pipeline.AHD).ScheduleDesc, Gantt: ScheduleGantt(w, sys, o, 3)})
	}
	return res
}

// FormatFig5 renders Fig. 5 as text.
func FormatFig5(r Fig5Result) string {
	header := []string{"system", "strategy", "epoch", "speedup"}
	var body [][]string
	for _, row := range r.Rows {
		body = append(body, []string{
			row.Workload, row.Strategy, metrics.FormatSeconds(row.EpochTime),
			fmt.Sprintf("%.2fx", row.Speedup),
		})
	}
	var b strings.Builder
	b.WriteString("Fig. 5 — GPU type sensitivity (NAS, ImageNet)\n")
	b.WriteString(metrics.Table(header, body))
	for _, s := range r.Systems {
		fmt.Fprintf(&b, "\n%s schedule: %s\n", s.Name, s.Schedule)
	}
	for _, s := range r.Systems {
		fmt.Fprintf(&b, "\n%s steady-state timeline:\n%s", s.Name, s.Gantt)
	}
	return b.String()
}

// --- Fig. 6: batch-size sensitivity ----------------------------------------

// Fig6Row is one point of Fig. 6.
type Fig6Row struct {
	Dataset  string
	Batch    int
	Strategy string
	Speedup  float64 // over DP at the same batch
}

// Fig6 reproduces the batch-size sensitivity study on the NAS workload.
func Fig6(sys hw.System, o Options) []Fig6Row {
	var rows []Fig6Row
	for _, imagenet := range []bool{false, true} {
		w := model.NAS(imagenet)
		for _, batch := range []int{128, 256, 384, 512} {
			opt := o
			opt.Batch = batch
			for _, r := range speedups(w.Data.Name, runAll(w, sys, opt), false) {
				rows = append(rows, Fig6Row{Dataset: r.Workload, Batch: batch, Strategy: r.Strategy, Speedup: r.Speedup})
			}
		}
	}
	return rows
}

// FormatFig6 renders Fig. 6 as a text table.
func FormatFig6(rows []Fig6Row) string {
	header := []string{"dataset", "batch", "strategy", "speedup"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{
			r.Dataset, fmt.Sprintf("%d", r.Batch), r.Strategy, fmt.Sprintf("%.2fx", r.Speedup),
		})
	}
	return "Fig. 6 — Batch size sensitivity (NAS, normalized to DP per batch)\n" +
		metrics.Table(header, body)
}

// --- Fig. 7: memory overhead -----------------------------------------------

// Fig7Row is one strategy's per-rank peak memory for Fig. 7.
type Fig7Row struct {
	Dataset   string
	Strategy  string
	PerRankGB []float64
	MaxGB     float64
}

// Fig7 reproduces the per-rank memory study on the NAS workload.
func Fig7(sys hw.System, o Options) []Fig7Row {
	var rows []Fig7Row
	for _, imagenet := range []bool{false, true} {
		w := model.NAS(imagenet)
		for _, r := range runAll(w, sys, o) {
			if r.Strategy == pipeline.TRIR {
				continue
			}
			per := make([]float64, len(r.Ranks))
			var max float64
			for i, rank := range r.Ranks {
				per[i] = float64(rank.PeakMemBytes) / (1 << 30)
				if per[i] > max {
					max = per[i]
				}
			}
			rows = append(rows, Fig7Row{Dataset: w.Data.Name, Strategy: r.Strategy, PerRankGB: per, MaxGB: max})
		}
	}
	return rows
}

// FormatFig7 renders Fig. 7 as a text table.
func FormatFig7(rows []Fig7Row) string {
	header := []string{"dataset", "strategy", "rank0", "rank1", "rank2", "rank3", "max"}
	var body [][]string
	for _, r := range rows {
		cells := []string{r.Dataset, r.Strategy}
		for _, g := range r.PerRankGB {
			cells = append(cells, fmt.Sprintf("%.2f", g))
		}
		for len(cells) < 6 {
			cells = append(cells, "-")
		}
		cells = append(cells, fmt.Sprintf("%.2f", r.MaxGB))
		body = append(body, cells)
	}
	return "Fig. 7 — Peak memory per rank (NAS, GB)\n" + metrics.Table(header, body)
}
