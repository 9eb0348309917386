// Mini-NAS: the paper's NAS workload in miniature, with real training.
// Each student block is a differentiable supernet cell (three candidate
// operations weighted by trainable architecture parameters, as in the
// paper's §VI-A description). Blockwise distillation against the teacher
// searches the architecture; the run executes as a real Pipe-BD pipeline
// (goroutines + channel relaying + decoupled updates) and is verified to
// match sequential search bit for bit — scheduling never changes what
// architecture is found.
package main

import (
	"fmt"

	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/sched"
)

func main() {
	cfg := distill.DefaultSupernetConfig()
	data := dataset.NewRandom(5, 200, 3, cfg.Height, cfg.Width, 4)
	var batches []dataset.Batch
	for epoch := 0; epoch < 10; epoch++ {
		batches = append(batches, data.Batches(8)...)
	}

	// Sequential reference search.
	seq := distill.NewTinySupernetWorkbench(cfg)
	engine.RunSequential(seq, batches, 0.05, 0.9)

	// Pipe-BD pipelined search: two devices, teacher relaying + DPU.
	pipe := distill.NewTinySupernetWorkbench(cfg)
	plan := sched.Plan{Name: "tr", Groups: []sched.Group{
		{Devices: []int{0}, Blocks: []int{0, 1}},
		{Devices: []int{1}, Blocks: []int{2}},
	}}
	res := engine.RunPipelined(pipe, batches, engine.Config{
		Plan: plan, DPU: true, LR: 0.05, Momentum: 0.9,
	})

	fmt.Println("architecture search results (candidate probabilities):")
	archSeq := distill.DeriveArchitecture(seq)
	archPipe := distill.DeriveArchitecture(pipe)
	weights := distill.ArchitectureWeights(pipe)
	for b := range archPipe {
		fmt.Printf("  block %d: ", b)
		for c, name := range distill.CandidateNames {
			fmt.Printf("%s=%.2f ", name, weights[b][c])
		}
		fmt.Printf("-> %s\n", distill.CandidateNames[archPipe[b]])
	}

	fmt.Println("\nfinal distillation losses:", formatLosses(res.FinalLoss()))

	same := true
	for b := range archSeq {
		if archSeq[b] != archPipe[b] {
			same = false
		}
	}
	fmt.Println("pipelined search finds the same architecture as sequential:", same)
	if !same {
		panic("architecture search diverged between schedules")
	}
}

func formatLosses(ls []float64) string {
	out := ""
	for i, l := range ls {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%.4f", l)
	}
	return out
}
