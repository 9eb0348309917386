// Quickstart: build a blockwise-distillation workload, profile it, let
// Pipe-BD plan a schedule, and compare simulated epoch times against the
// data-parallel baseline — the library's core loop in ~40 lines.
package main

import (
	"fmt"

	"pipebd/internal/hw"
	"pipebd/internal/metrics"
	"pipebd/internal/model"
	"pipebd/internal/pipeline"
	"pipebd/internal/profilegen"
	"pipebd/internal/sched"
)

func main() {
	// 1. Pick a workload (teacher/student pair + dataset) and a system.
	workload := model.NAS(false) // MobileNetV2 -> ProxylessNAS on CIFAR-10
	system := hw.A6000x4()
	batch := 256

	// 2. Profile every block at every feasible batch split — Pipe-BD's
	//    pre-training measurement pass (§V-B of the paper).
	profile := profilegen.Measure(workload, system.GPUs[0], batch, system.NumDevices(), 100)

	// 3. Plan: plain teacher relaying and automatic hybrid distribution.
	trPlan := sched.TRContiguous(profile, system.NumDevices())
	ahdPlan := sched.AHD(profile, system)
	fmt.Println("TR plan :", trPlan.Describe())
	fmt.Println("AHD plan:", ahdPlan.Describe())

	// 4. Simulate one epoch of every strategy of the paper's ladder, which
	//    profiles and plans as above and starts with the DP baseline.
	fmt.Println()
	var dp metrics.Report
	for i, rung := range pipeline.Ladder(pipeline.Config{Workload: workload, System: system, GlobalBatch: batch}) {
		r, _ := rung.Run()
		if i == 0 {
			dp = r
		}
		fmt.Printf("%-12s epoch %-10s speedup %.2fx\n",
			r.Strategy, metrics.FormatSeconds(r.EpochTime), r.Speedup(dp))
	}
}
