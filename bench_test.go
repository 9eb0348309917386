// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablation benches for the repository's design choices. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates its experiment end to end (profiling,
// planning, simulated epochs) with truncated passes so a full sweep stays
// in seconds; per-iteration metrics report the headline quantity (e.g.
// speedup over DP) so the shape results are visible in benchmark output.
package pipebd

import (
	"testing"

	"pipebd/internal/bench"
	"pipebd/internal/experiments"
	"pipebd/internal/hw"
	"pipebd/internal/model"
	"pipebd/internal/pipeline"
	"pipebd/internal/profilegen"
	"pipebd/internal/sched"
)

// benchOpts truncates simulated passes so benchmark iterations stay fast
// while remaining deep in steady state.
var benchOpts = experiments.Options{Batch: 256, MaxSteps: 40}

// BenchmarkFig2Breakdown regenerates the motivational breakdown (Fig. 2).
func BenchmarkFig2Breakdown(b *testing.B) {
	sys := hw.A6000x4()
	var gap float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig2(sys, benchOpts)
		gap = rows[0].Total() / rows[1].Total() // baseline vs ideal
	}
	b.ReportMetric(gap, "baseline/ideal")
}

// BenchmarkFig4SpeedupAblation regenerates the full ablation (Fig. 4).
func BenchmarkFig4SpeedupAblation(b *testing.B) {
	sys := hw.A6000x4()
	var best float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig4(sys, benchOpts)
		for _, r := range rows {
			if r.Strategy == "TR+DPU+AHD" && r.Speedup > best {
				best = r.Speedup
			}
		}
	}
	b.ReportMetric(best, "max-speedup-x")
}

// BenchmarkFig5GPUSensitivity regenerates the GPU-type study (Fig. 5).
func BenchmarkFig5GPUSensitivity(b *testing.B) {
	var a6000Speedup float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig5(benchOpts)
		for _, r := range res.Rows {
			if r.Workload == "4x RTX A6000" && r.Strategy == "TR+DPU+AHD" {
				a6000Speedup = r.Speedup
			}
		}
	}
	b.ReportMetric(a6000Speedup, "a6000-speedup-x")
}

// BenchmarkFig6BatchSensitivity regenerates the batch sweep (Fig. 6).
func BenchmarkFig6BatchSensitivity(b *testing.B) {
	sys := hw.A6000x4()
	var atSmallBatch float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig6(sys, benchOpts)
		for _, r := range rows {
			if r.Batch == 128 && r.Dataset == "cifar10" && r.Strategy == "TR+DPU+AHD" {
				atSmallBatch = r.Speedup
			}
		}
	}
	b.ReportMetric(atSmallBatch, "speedup-b128-x")
}

// BenchmarkFig7Memory regenerates the per-rank memory study (Fig. 7).
func BenchmarkFig7Memory(b *testing.B) {
	sys := hw.A6000x4()
	var trOverDP float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig7(sys, benchOpts)
		var dp, tr float64
		for _, r := range rows {
			if r.Dataset != "imagenet" {
				continue
			}
			switch r.Strategy {
			case "DP":
				dp = r.MaxGB
			case "TR":
				tr = r.MaxGB
			}
		}
		trOverDP = tr / dp
	}
	b.ReportMetric(trOverDP, "tr/dp-mem")
}

// BenchmarkTable2TrainingResults regenerates Table II's elapsed-time
// columns (accuracy proxy excluded: see BenchmarkNumericEquivalence).
func BenchmarkTable2TrainingResults(b *testing.B) {
	sys := hw.A6000x4()
	var pipeBDSpeedup float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(sys, benchOpts, true)
		pipeBDSpeedup = rows[0].DPEpoch / rows[0].PipeBDEpoch
	}
	b.ReportMetric(pipeBDSpeedup, "nas-cifar-speedup-x")
}

// BenchmarkNumericEquivalence measures the real concurrent engine: one
// pipelined mini-epoch of actual float32 blockwise distillation (Table
// II's training-quality evidence), once per tensor compute backend. The
// backends are bit-identical, so the sub-benchmarks differ only in how
// the host's cores are used. The definition lives in the shared registry
// (internal/bench), which cmd/pipebd-bench measures too — one source of
// truth for both harnesses.
func BenchmarkNumericEquivalence(b *testing.B) {
	for _, c := range bench.Pipeline(false) {
		c := c
		b.Run(c.Name+"/"+c.Backend, func(b *testing.B) { c.Run(b) })
	}
}

// BenchmarkTransformerWorkload measures the transformer blockwise
// distillation path: the skinny batched attention GEMMs the PR 9
// dispatch rework learned to pack, the multi-head-attention training
// step, and a pipelined transformer mini-epoch per backend. The
// definitions live in the shared registry (internal/bench), so
// cmd/pipebd-bench reports the same numbers.
func BenchmarkTransformerWorkload(b *testing.B) {
	for _, c := range bench.Transformer(false) {
		c := c
		b.Run(c.Name+"/"+c.Backend, func(b *testing.B) { c.Run(b) })
	}
}

// BenchmarkFaultRecovery measures the transient-fault absorption tier
// against the global-cut restart it replaces: the same tiny loopback ring
// run with one identical mid-run link break, once absorbed by
// reconnect-and-replay and once recovered by restarting every device from
// the cut. The definitions live in the shared registry so
// cmd/pipebd-bench reports the same numbers.
func BenchmarkFaultRecovery(b *testing.B) {
	for _, c := range bench.Recovery(false) {
		c := c
		b.Run(c.Name, func(b *testing.B) { c.Run(b) })
	}
}

// BenchmarkTraceOverhead measures the observability layer's span
// Begin/End pair, disabled (the default every hot path pays) and enabled
// (what -trace-out opts into). The definition lives in the shared
// registry so cmd/pipebd-bench reports the same numbers.
func BenchmarkTraceOverhead(b *testing.B) {
	for _, c := range bench.Trace() {
		c := c
		b.Run(c.Name, func(b *testing.B) { c.Run(b) })
	}
}

// --- ablation benches -------------------------------------------------------

// BenchmarkAblationOccupancyModel compares Pipe-BD's speedup with and
// without the occupancy derating — isolating how much of the win comes
// from per-device batch utilization versus redundancy removal.
func BenchmarkAblationOccupancyModel(b *testing.B) {
	w := model.NAS(false)
	run := func(sys hw.System) float64 {
		cfg := pipeline.Config{Workload: w, System: sys, GlobalBatch: 256, MaxSteps: benchOpts.MaxSteps}
		prof := profilegen.Measure(w, sys.GPUs[0], 256, 4, 10)
		plan := sched.TRContiguous(prof, 4)
		return pipeline.RunDP(cfg).EpochTime / pipeline.RunTR(cfg, plan, true, "TR+DPU").EpochTime
	}
	var withOcc, flat float64
	for i := 0; i < b.N; i++ {
		withOcc = run(hw.A6000x4())
		sysFlat := hw.A6000x4()
		for j := range sysFlat.GPUs {
			sysFlat.GPUs[j].SaturationElems = 0 // disable derating
		}
		flat = run(sysFlat)
	}
	b.ReportMetric(withOcc, "speedup-occupancy-x")
	b.ReportMetric(flat, "speedup-flat-x")
}

// BenchmarkAblationAHDvsNaive compares AHD's profiled hybrid plan against
// the naive contiguous distribution on the workload where it matters most
// (NAS/ImageNet, Fig. 5's block-0 dominance).
func BenchmarkAblationAHDvsNaive(b *testing.B) {
	w := model.NAS(true)
	sys := hw.A6000x4()
	cfg := pipeline.Config{Workload: w, System: sys, GlobalBatch: 256, MaxSteps: benchOpts.MaxSteps}
	var gain float64
	for i := 0; i < b.N; i++ {
		prof := profilegen.Measure(w, sys.GPUs[0], 256, 4, 10)
		naive := pipeline.RunTR(cfg, sched.TRContiguous(prof, 4), true, "TR+DPU")
		ahd := pipeline.RunTR(cfg, sched.AHD(prof, sys, sched.DefaultAHDConfig()), true, "TR+DPU+AHD")
		gain = naive.EpochTime / ahd.EpochTime
	}
	b.ReportMetric(gain, "ahd-gain-x")
}

// BenchmarkAblationDPUBarrier isolates decoupled parameter update: the
// same plan with and without the per-step barrier.
func BenchmarkAblationDPUBarrier(b *testing.B) {
	w := model.Compression(false)
	sys := hw.A6000x4()
	cfg := pipeline.Config{Workload: w, System: sys, GlobalBatch: 256, MaxSteps: benchOpts.MaxSteps}
	var gain float64
	for i := 0; i < b.N; i++ {
		prof := profilegen.Measure(w, sys.GPUs[0], 256, 4, 10)
		plan := sched.TRContiguous(prof, 4)
		barrier := pipeline.RunTR(cfg, plan, false, "TR")
		dpu := pipeline.RunTR(cfg, plan, true, "TR+DPU")
		gain = barrier.EpochTime / dpu.EpochTime
	}
	b.ReportMetric(gain, "dpu-gain-x")
}

// BenchmarkAblationLoaderBandwidth removes the shared-loader constraint
// (infinite storage bandwidth, free per-batch cost) to expose how much of
// DP's deficit is data loading.
func BenchmarkAblationLoaderBandwidth(b *testing.B) {
	w := model.NAS(false)
	var normal, infinite float64
	run := func(sys hw.System) float64 {
		cfg := pipeline.Config{Workload: w, System: sys, GlobalBatch: 256, MaxSteps: benchOpts.MaxSteps}
		return pipeline.RunDP(cfg).EpochTime
	}
	for i := 0; i < b.N; i++ {
		normal = run(hw.A6000x4())
		sysInf := hw.A6000x4()
		sysInf.Host.StorageBandwidth = 1e15
		sysInf.Host.PerBatchOverhead = 0
		sysInf.Host.Cores = 1 << 20
		infinite = run(sysInf)
	}
	b.ReportMetric(normal/infinite, "dp-loading-overhead-x")
}

// BenchmarkSimulatorThroughput measures the raw simulator: simulated
// steps per second for the most complex executor (hybrid TR).
func BenchmarkSimulatorThroughput(b *testing.B) {
	w := model.NAS(true)
	sys := hw.A6000x4()
	prof := profilegen.Measure(w, sys.GPUs[0], 256, 4, 10)
	plan := sched.AHD(prof, sys, sched.DefaultAHDConfig())
	cfg := pipeline.Config{Workload: w, System: sys, GlobalBatch: 256, MaxSteps: 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipeline.RunTR(cfg, plan, true, "TR+DPU+AHD")
	}
}
