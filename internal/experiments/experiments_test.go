package experiments

import (
	"strings"
	"testing"

	"pipebd/internal/hw"
	"pipebd/internal/model"
)

// quick keeps experiment tests in milliseconds while staying deep enough
// in steady state for shape assertions.
var quick = Options{Batch: 256, MaxSteps: 40}

func TestFig2Shapes(t *testing.T) {
	rows := Fig2(hw.A6000x4(), quick)
	if len(rows) != 3 {
		t.Fatalf("Fig2 rows = %d, want 3 (baseline, ideal, pipe-bd)", len(rows))
	}
	baseline, ideal, pipeBD := rows[0], rows[1], rows[2]
	// The baseline towers over the ideal; Pipe-BD sits between them,
	// much closer to ideal than to the baseline (the paper's Fig. 2).
	if baseline.Total() < 3*ideal.Total() {
		t.Errorf("baseline (%.2fs) should be >=3x ideal (%.2fs)", baseline.Total(), ideal.Total())
	}
	if pipeBD.Total() >= baseline.Total()/2 {
		t.Errorf("Pipe-BD (%.2fs) should be far below the baseline (%.2fs)", pipeBD.Total(), baseline.Total())
	}
	if ideal.Idle != 0 {
		t.Error("the ideal system has no idle time by construction")
	}
	// Baseline inefficiencies visible in all three categories.
	if baseline.Load <= ideal.Load || baseline.Teacher <= ideal.Teacher || baseline.Student <= ideal.Student {
		t.Error("baseline must exceed ideal in loading, teacher, and student time")
	}
	out := FormatFig2(rows)
	if !strings.Contains(out, "Baseline (DP)") || !strings.Contains(out, "Ideal") {
		t.Error("FormatFig2 missing row labels")
	}
}

func TestFig4Shapes(t *testing.T) {
	rows := Fig4(hw.A6000x4(), quick)
	if len(rows) != 4*6 {
		t.Fatalf("Fig4 rows = %d, want 24", len(rows))
	}
	speedup := map[string]map[string]float64{}
	for _, r := range rows {
		if speedup[r.Workload] == nil {
			speedup[r.Workload] = map[string]float64{}
		}
		speedup[r.Workload][r.Strategy] = r.Speedup
	}
	for wl, s := range speedup {
		// Pipe-BD (full stack) is the fastest configuration everywhere.
		for strat, v := range s {
			if v > s["TR+DPU+AHD"]+1e-9 {
				t.Errorf("%s: %s (%.2fx) beats TR+DPU+AHD (%.2fx)", wl, strat, v, s["TR+DPU+AHD"])
			}
		}
		// The ablation is ordered: TR <= TR+DPU <= TR+DPU+AHD.
		if s["TR"] > s["TR+DPU"]+1e-9 || s["TR+DPU"] > s["TR+DPU+AHD"]+1e-9 {
			t.Errorf("%s: ablation order violated: TR %.2f, +DPU %.2f, +AHD %.2f",
				wl, s["TR"], s["TR+DPU"], s["TR+DPU+AHD"])
		}
	}
	// LS crossover: better than DP on CIFAR, worse on ImageNet.
	if speedup["nas-cifar10"]["LS"] <= 1 || speedup["compression-cifar10"]["LS"] <= 1 {
		t.Error("LS should beat DP on CIFAR-10 workloads")
	}
	if speedup["nas-imagenet"]["LS"] >= 1 || speedup["compression-imagenet"]["LS"] >= 1 {
		t.Error("LS should lose to DP on ImageNet workloads")
	}
	// Headline range: Pipe-BD speedups in the multi-fold regime.
	for wl, s := range speedup {
		if v := s["TR+DPU+AHD"]; v < 1.8 || v > 10 {
			t.Errorf("%s: Pipe-BD speedup %.2fx outside plausible range", wl, v)
		}
	}
}

func TestFig5Shapes(t *testing.T) {
	res := Fig5(quick)
	if len(res.Rows) != 10 {
		t.Fatalf("Fig5 rows = %d, want 10", len(res.Rows))
	}
	// Both systems must end up with hybrid plans that share block 0
	// (the paper's Fig. 5b/5c), and both give multi-fold speedups.
	for _, s := range res.Systems {
		if !strings.Contains(s.Schedule, "B0") || !strings.Contains(s.Schedule, "DP") {
			t.Errorf("%s: AHD schedule %q does not share block 0", s.Name, s.Schedule)
		}
		if !strings.Contains(s.Gantt, "gpu0") || !strings.Contains(s.Gantt, "legend:") {
			t.Errorf("%s: Gantt rendering incomplete", s.Name)
		}
	}
	out := FormatFig5(res)
	if !strings.Contains(out, "2080Ti") || !strings.Contains(out, "A6000") {
		t.Error("FormatFig5 missing systems")
	}
}

func TestFig6Shapes(t *testing.T) {
	rows := Fig6(hw.A6000x4(), quick)
	if len(rows) != 2*4*5 {
		t.Fatalf("Fig6 rows = %d, want 40", len(rows))
	}
	get := func(ds string, batch int, strat string) float64 {
		for _, r := range rows {
			if r.Dataset == ds && r.Batch == batch && r.Strategy == strat {
				return r.Speedup
			}
		}
		t.Fatalf("missing row %s/%d/%s", ds, batch, strat)
		return 0
	}
	// Speedups grow as the batch shrinks (utilization gap), the paper's
	// common trend, checked on both datasets for TR+DPU.
	for _, ds := range []string{"cifar10", "imagenet"} {
		if get(ds, 128, "TR+DPU") <= get(ds, 512, "TR+DPU") {
			t.Errorf("%s: TR+DPU speedup should be larger at batch 128 than 512", ds)
		}
	}
	// DP is always exactly 1.0 (self-normalized).
	for _, r := range rows {
		if r.Strategy == "DP" && (r.Speedup < 0.999 || r.Speedup > 1.001) {
			t.Errorf("DP speedup %v != 1", r.Speedup)
		}
	}
}

func TestFig7Shapes(t *testing.T) {
	rows := Fig7(hw.A6000x4(), quick)
	byKey := map[string]Fig7Row{}
	for _, r := range rows {
		byKey[r.Dataset+"/"+r.Strategy] = r
	}
	// TR concentrates memory on rank 0 for ImageNet (big early feature
	// maps at full batch).
	tr := byKey["imagenet/TR"]
	for i := 1; i < len(tr.PerRankGB); i++ {
		if tr.PerRankGB[i] > tr.PerRankGB[0] {
			t.Errorf("TR rank %d (%.2f GB) exceeds rank 0 (%.2f GB)", i, tr.PerRankGB[i], tr.PerRankGB[0])
		}
	}
	// AHD reduces the worst rank versus TR (Fig. 7's closing point).
	if ahd := byKey["imagenet/TR+DPU+AHD"]; ahd.MaxGB >= tr.MaxGB {
		t.Errorf("AHD max %.2f GB should be below TR max %.2f GB", ahd.MaxGB, tr.MaxGB)
	}
	// TR uses more memory than DP (full batch + relay buffers).
	if dp := byKey["imagenet/DP"]; tr.MaxGB <= dp.MaxGB {
		t.Error("TR peak memory should exceed DP's")
	}
	// Everything fits the A6000's 48 GiB.
	for key, r := range byKey {
		if r.MaxGB > 48 {
			t.Errorf("%s: %.2f GB exceeds device memory", key, r.MaxGB)
		}
	}
}

func TestTable1MentionsBothSystems(t *testing.T) {
	out := Table1()
	for _, frag := range []string{"A6000", "2080Ti", "EPYC", "Xeon", "MobileNetV2", "VGG-16"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table1 missing %q", frag)
		}
	}
}

func TestTable2Shapes(t *testing.T) {
	rows := Table2(hw.A6000x4(), quick, true)
	if len(rows) != 4 {
		t.Fatalf("Table2 rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.PipeBDEpoch >= r.DPEpoch {
			t.Errorf("%s/%s: Pipe-BD (%v) not faster than DP (%v)", r.Task, r.Dataset, r.PipeBDEpoch, r.DPEpoch)
		}
		if r.TeacherParams <= 0 || r.StudentParams <= 0 {
			t.Errorf("%s/%s: missing model statistics", r.Task, r.Dataset)
		}
	}
	// Table II fidelity on the fully determined teachers.
	if r := rows[0]; r.TeacherParams < 2.2 || r.TeacherParams > 2.3 {
		t.Errorf("MNv2-CIFAR params %.2fM, want ~2.24M", r.TeacherParams)
	}
	if r := rows[3]; r.TeacherParams < 137 || r.TeacherParams > 139 {
		t.Errorf("VGG16-ImageNet params %.2fM, want ~138.36M", r.TeacherParams)
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "Pipe-BD") {
		t.Error("FormatTable2 incomplete")
	}
}

func TestTable2AccuracyProxyEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy proxy trains real networks")
	}
	rows := Table2(hw.A6000x4(), quick, false)
	for _, r := range rows {
		if r.SeqAccuracy != r.PipeBDAccuracy {
			t.Fatalf("accuracies differ: %v vs %v (bit-equivalence broken)", r.SeqAccuracy, r.PipeBDAccuracy)
		}
		if r.SeqAccuracy < 0.5 {
			t.Fatalf("proxy accuracy %.2f implausibly low", r.SeqAccuracy)
		}
	}
}

func TestScheduleGanttRenders(t *testing.T) {
	out := ScheduleGantt(model.NAS(false), hw.A6000x4(), quick, 3)
	if !strings.Contains(out, "gpu0") || !strings.Contains(out, "legend:") {
		t.Fatalf("incomplete Gantt:\n%s", out)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.batch() != 256 {
		t.Fatal("zero Options must default to batch 256")
	}
}

func TestChartsRender(t *testing.T) {
	sys := hw.A6000x4()
	if out := ChartFig2(Fig2(sys, quick)); !strings.Contains(out, "legend:") {
		t.Error("ChartFig2 incomplete")
	}
	fig4 := ChartFig4(Fig4(sys, quick))
	for _, wl := range []string{"nas-cifar10", "compression-imagenet"} {
		if !strings.Contains(fig4, wl) {
			t.Errorf("ChartFig4 missing %s", wl)
		}
	}
	if out := ChartFig6(Fig6(sys, quick)); !strings.Contains(out, "batch 128") {
		t.Error("ChartFig6 missing batch groups")
	}
	if out := ChartFig7(Fig7(sys, quick)); !strings.Contains(out, "rank0") {
		t.Error("ChartFig7 missing ranks")
	}
}
