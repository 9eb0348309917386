package pipeline

import (
	"math"
	"testing"

	"pipebd/internal/hw"
	"pipebd/internal/metrics"
	"pipebd/internal/model"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
	"pipebd/internal/sim"
)

// quickCfg returns a truncated configuration that reaches steady state
// but keeps test runtime in milliseconds.
func quickCfg(w model.Workload, sys hw.System) Config {
	return Config{Workload: w, System: sys, GlobalBatch: 256, MaxSteps: 40}
}

func plans(t *testing.T, w model.Workload, sys hw.System) (tr, ahd sched.Plan) {
	t.Helper()
	return sched.TRContiguous(w, sys, 256), sched.AHD(w, sys, 256)
}

// relay simulates teacher relaying under plan.
func relay(cfg Config, plan sched.Plan, dpu bool) metrics.Report {
	rep, _ := Run(cfg, sched.TeacherRelaying(plan, dpu))
	return rep
}

// rung simulates one named strategy of the ladder.
func rung(t *testing.T, cfg Config, name string) metrics.Report {
	t.Helper()
	r, err := Strategy(cfg, name)
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := r.Run()
	return rep
}

func ladderReports(cfg Config) map[string]metrics.Report {
	reps := map[string]metrics.Report{}
	for _, r := range Ladder(cfg) {
		reps[r.Name], _ = r.Run()
	}
	return reps
}

func allReports(t *testing.T, w model.Workload, sys hw.System) map[string]metrics.Report {
	t.Helper()
	reps := ladderReports(quickCfg(w, sys))
	if len(reps) != 6 {
		t.Fatalf("the ladder has %d strategies, want 6", len(reps))
	}
	return reps
}

func TestAccountingSpansEpoch(t *testing.T) {
	// For every strategy and rank: busy + idle == epoch time.
	for _, w := range []model.Workload{model.NAS(false), model.Compression(true)} {
		for name, rep := range allReports(t, w, hw.A6000x4()) {
			for r, rank := range rep.Ranks {
				total := rank.TotalBusy() + rank.Idle
				if math.Abs(total-rep.EpochTime) > 1e-9*math.Max(1, rep.EpochTime) {
					t.Errorf("%s/%s rank %d: busy+idle %v != epoch %v", w.Name, name, r, total, rep.EpochTime)
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	w := model.NAS(false)
	sys := hw.A6000x4()
	a := allReports(t, w, sys)
	b := allReports(t, w, sys)
	for name := range a {
		if a[name].EpochTime != b[name].EpochTime {
			t.Errorf("%s: simulation not deterministic", name)
		}
	}
}

func TestPipeBDBeatsBaselinesEverywhere(t *testing.T) {
	// The headline result: TR+DPU+AHD is fastest on all four workloads.
	for _, w := range model.AllWorkloads() {
		reps := allReports(t, w, hw.A6000x4())
		best := reps["TR+DPU+AHD"].EpochTime
		for name, rep := range reps {
			if name == "TR+DPU+AHD" {
				continue
			}
			if best > rep.EpochTime+1e-9 {
				t.Errorf("%s: TR+DPU+AHD (%v) slower than %s (%v)", w.Name, best, name, rep.EpochTime)
			}
		}
		if sp := reps["DP"].EpochTime / best; sp < 1.5 {
			t.Errorf("%s: Pipe-BD speedup over DP only %.2fx", w.Name, sp)
		}
	}
}

func TestDPURemovesBubbles(t *testing.T) {
	// Decoupled parameter update must never slow training down, and on
	// workloads with imbalance it must strictly help.
	for _, w := range model.AllWorkloads() {
		cfg := quickCfg(w, hw.A6000x4())
		trPlan, _ := plans(t, w, hw.A6000x4())
		plain := relay(cfg, trPlan, false)
		dpu := relay(cfg, trPlan, true)
		if dpu.EpochTime > plain.EpochTime+1e-9 {
			t.Errorf("%s: DPU slowed training: %v vs %v", w.Name, dpu.EpochTime, plain.EpochTime)
		}
	}
}

func TestLSCrossover(t *testing.T) {
	// LS beats DP on CIFAR-10 but loses on ImageNet (paper §VII-A).
	sys := hw.A6000x4()
	for _, tc := range []struct {
		w        model.Workload
		lsFaster bool
	}{
		{model.NAS(false), true},
		{model.NAS(true), false},
		{model.Compression(false), true},
		{model.Compression(true), false},
	} {
		cfg := quickCfg(tc.w, sys)
		dp, ls := rung(t, cfg, DP), rung(t, cfg, LS)
		if got := ls.EpochTime < dp.EpochTime; got != tc.lsFaster {
			t.Errorf("%s: LS faster=%v, want %v (LS %v vs DP %v)",
				tc.w.Name, got, tc.lsFaster, ls.EpochTime, dp.EpochTime)
		}
	}
}

func TestDPRedundantTeacherAndLoading(t *testing.T) {
	// DP must execute far more teacher time and data loading than
	// TR+DPU — the motivation of Fig. 2.
	w := model.NAS(false)
	sys := hw.A6000x4()
	cfg := quickCfg(w, sys)
	trPlan, _ := plans(t, w, sys)
	dp := rung(t, cfg, DP)
	tr := relay(cfg, trPlan, true)
	sumCat := func(r metrics.Report, c obs.Category) float64 {
		var s float64
		for _, rank := range r.Ranks {
			s += rank.Busy[c]
		}
		return s
	}
	if sumCat(dp, obs.CatTeacherFwd) < 2*sumCat(tr, obs.CatTeacherFwd) {
		t.Error("DP should execute at least 2x the teacher work of TR")
	}
	if sumCat(dp, obs.CatLoad) < 2*sumCat(tr, obs.CatLoad) {
		t.Error("DP should spend at least 2x the loading time of TR")
	}
}

func TestTRMemoryConcentratesOnRankZero(t *testing.T) {
	// Fig. 7: under TR the early blocks (big feature maps) live on rank
	// 0, which must have the highest peak memory.
	w := model.NAS(true)
	sys := hw.A6000x4()
	cfg := quickCfg(w, sys)
	trPlan, _ := plans(t, w, sys)
	rep := relay(cfg, trPlan, true)
	for r := 1; r < len(rep.Ranks); r++ {
		if rep.Ranks[r].PeakMemBytes > rep.Ranks[0].PeakMemBytes {
			t.Fatalf("rank %d memory %d exceeds rank 0's %d", r, rep.Ranks[r].PeakMemBytes, rep.Ranks[0].PeakMemBytes)
		}
	}
	// AHD's batch splitting must reduce the rank-0 peak.
	_, ahdPlan := plans(t, w, sys)
	ahd := relay(cfg, ahdPlan, true)
	if ahd.Ranks[0].PeakMemBytes >= rep.Ranks[0].PeakMemBytes {
		t.Fatal("AHD should reduce rank-0 memory versus plain TR")
	}
}

func TestIRMemoryHigherThanDP(t *testing.T) {
	// Internal relaying stores every teacher and student block per
	// device; its peak must exceed DP's.
	w := model.NAS(false)
	cfg := quickCfg(w, hw.A6000x4())
	ir, dp := rung(t, cfg, TRIR), rung(t, cfg, DP)
	if ir.PeakMemory() <= dp.PeakMemory() {
		t.Fatalf("IR memory %d should exceed DP %d", ir.PeakMemory(), dp.PeakMemory())
	}
}

func TestMaxStepsTruncation(t *testing.T) {
	w := model.NAS(false)
	cfg := quickCfg(w, hw.A6000x4())
	cfg.MaxSteps = 5
	rep := rung(t, cfg, DP)
	if rep.Steps != 5*w.NumBlocks() {
		t.Fatalf("Steps = %d, want %d", rep.Steps, 5*w.NumBlocks())
	}
	full := cfg
	full.MaxSteps = 10
	if rung(t, full, DP).EpochTime <= rep.EpochTime {
		t.Fatal("more steps must take longer")
	}
}

func TestRecordingProducesIntervals(t *testing.T) {
	w := model.NAS(false)
	cfg := quickCfg(w, hw.A6000x4())
	cfg.Record = true
	cfg.MaxSteps = 3
	rep, tracks := Run(cfg, sched.TeacherRelaying(sched.InternalRelaying(4, 6), true))
	order, byTrack := sim.Spans(append(tracks.Devs, tracks.Loader))
	for _, name := range order {
		if len(byTrack[name]) == 0 {
			t.Fatalf("%s recorded no spans", name)
		}
	}
	// A device's spans sum, category by category, to the busy seconds the
	// report gives it, up to each span's nanosecond rounding.
	for d, rank := range rep.Ranks {
		spans := byTrack[order[d]]
		var sum [obs.NumCategories]float64
		for _, s := range spans {
			sum[s.Cat] += float64(s.Dur) / 1e9
		}
		for c := range sum {
			if math.Abs(sum[c]-rank.Busy[c]) > 1e-9*float64(len(spans)) {
				t.Fatalf("%s: %v spans sum to %v s, the report says %v s", order[d], obs.Category(c), sum[c], rank.Busy[c])
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	w := model.NAS(false)
	for name, cfg := range map[string]Config{
		"zero batch":    {Workload: w, System: hw.A6000x4(), GlobalBatch: 0},
		"odd batch":     {Workload: w, System: hw.A6000x4(), GlobalBatch: 254},
		"broken system": {Workload: w, System: hw.System{Name: "x"}, GlobalBatch: 256},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			Run(cfg, sched.DataParallel(4, w.NumBlocks()))
		}()
	}
}

func TestBatchSensitivityShape(t *testing.T) {
	// Fig. 6: Pipe-BD's advantage over DP grows as the batch shrinks
	// (utilization gap) on CIFAR-10.
	w := model.NAS(false)
	speedup := func(sys hw.System, batch int) float64 {
		cfg := Config{Workload: w, System: sys, GlobalBatch: batch, MaxSteps: 40}
		tr := sched.TRContiguous(w, sys, batch)
		return rung(t, cfg, DP).EpochTime / relay(cfg, tr, true).EpochTime
	}
	sys := hw.A6000x4()
	if s128, s512 := speedup(sys, 128), speedup(sys, 512); s128 <= s512 {
		t.Fatalf("speedup at batch 128 (%v) should exceed batch 512 (%v)", s128, s512)
	}
	// That gap is the occupancy derating: with it off, DP's quarter-size
	// per-device batches run at full efficiency and part of the win goes
	// (3.56x -> 3.40x at batch 256); what stays is redundancy removal.
	flat := hw.A6000x4()
	for i := range flat.GPUs {
		flat.GPUs[i].SaturationElems = 0
	}
	if derated, full := speedup(sys, 256), speedup(flat, 256); derated <= full || full < 1.5 {
		t.Fatalf("speedup with occupancy derating (%v) should exceed the flat model's (%v), itself well above 1", derated, full)
	}
}

func Test2080TiAHDSharesLessThanA6000(t *testing.T) {
	// Fig. 5: the A6000's block-0 dominance is larger, so its AHD plan
	// shares at least as many devices on the first group as the 2080Ti's.
	w := model.NAS(true)
	split := func(sys hw.System) int {
		return sched.AHD(w, sys, 256).Groups[0].Split()
	}
	if a, turing := split(hw.A6000x4()), split(hw.RTX2080Tix4()); a < turing {
		t.Fatalf("A6000 first-group split %d < 2080Ti's %d", a, turing)
	}
}
