// Quickstart: build a blockwise-distillation workload, let Pipe-BD plan a
// schedule against the per-block costs, and compare simulated epoch times
// against the data-parallel baseline — the library's core loop in ~40
// lines.
package main

import (
	"fmt"

	"pipebd/internal/hw"
	"pipebd/internal/metrics"
	"pipebd/internal/model"
	"pipebd/internal/pipeline"
	"pipebd/internal/sched"
)

func main() {
	// 1. Pick a workload (teacher/student pair + dataset) and a system.
	workload := model.NAS(false) // MobileNetV2 -> ProxylessNAS on CIFAR-10
	system := hw.A6000x4()
	batch := 256

	// 2. Plan: plain teacher relaying and automatic hybrid distribution.
	//    Both search against sched.Price — what a step of a candidate stage
	//    costs each member on its own GPU at its own batch share, the
	//    stand-in for Pipe-BD's pre-training measurement pass (§V-B of the
	//    paper) and the very numbers the simulator then plays.
	trPlan := sched.TRContiguous(workload, system, batch)
	ahdPlan := sched.AHD(workload, system, batch)
	fmt.Println("TR plan :", trPlan.Describe())
	fmt.Println("AHD plan:", ahdPlan.Describe())

	// 3. Simulate one epoch of every strategy of the paper's ladder, which
	//    plans as above and starts with the DP baseline.
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
