// Custom hardware: define your own GPU/system model and watch automatic
// hybrid distribution adapt the schedule — the Fig. 5 story ("Pipe-BD
// automatically determines the appropriate schedule according to the
// environment") extended to hardware that does not exist yet.
package main

import (
	"fmt"

	"pipebd/internal/hw"
	"pipebd/internal/metrics"
	"pipebd/internal/model"
	"pipebd/internal/pipeline"
)

// hypothetical builds an imaginary accelerator: compute scaled relative
// to an A6000, with the memory system held fixed. High compute:bandwidth
// ratios make bandwidth-bound blocks (ImageNet's block 0) relatively more
// dominant, pushing AHD toward wider sharing.
func hypothetical(name string, computeScale float64) hw.System {
	g := hw.RTXA6000()
	g.Name = name
	g.PeakFLOPS *= computeScale
	gpus := make([]hw.GPU, 4)
	for i := range gpus {
		gpus[i] = g
	}
	return hw.System{Name: "4x " + name, GPUs: gpus, Link: hw.PCIe4(), Host: hw.EPYC7302Host()}
}

func main() {
	w := model.NAS(true)
	batch := 256

	systems := []hw.System{
		hw.RTX2080Tix4(),
		hw.A6000x4(),
		hypothetical("FutureGPU-2x", 2.0),
		hypothetical("FutureGPU-4x", 4.0),
	}

	fmt.Println("AHD schedule adaptation, NAS / ImageNet, batch", batch)
	header := []string{"system", "chosen schedule", "epoch", "speedup vs DP"}
	var rows [][]string
	for _, sys := range systems {
		if err := sys.Validate(); err != nil {
			panic(err)
		}
		ladder := pipeline.Ladder(pipeline.Config{Workload: w, System: sys, GlobalBatch: batch})
		dp, _ := ladder[0].Run()             // the DP baseline
		pb, _ := ladder[len(ladder)-1].Run() // full Pipe-BD: TR+DPU on the AHD plan
		rows = append(rows, []string{
			sys.Name, pb.ScheduleDesc,
			metrics.FormatSeconds(pb.EpochTime),
			fmt.Sprintf("%.2fx", pb.Speedup(dp)),
		})
	}
	fmt.Print(metrics.Table(header, rows))
	fmt.Println("\nFaster compute leaves bandwidth-bound early blocks towering over the")
	fmt.Println("rest, so the planner widens data-parallel sharing of block 0 — the same")
	fmt.Println("trend the paper observes moving from the 2080Ti to the A6000 (Fig. 5).")
}
