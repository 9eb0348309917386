// Numeric equivalence: train a real (miniature) blockwise-distillation
// workload under the paper's whole ladder — sequentially, under the DP
// and LS baselines, as a Pipe-BD pipeline with decoupled updates, with a
// hybrid data-parallel group — and verify the paper's claim that the
// schedule changes when a block is trained, never what it learns. Every
// schedule but the sequential reference is a sched.Program played by the
// one device loop of internal/engine.
package main

import (
	"fmt"

	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/sched"
)

func main() {
	cfg := distill.DefaultTinyConfig()
	data := dataset.NewRandom(7, 160, 3, cfg.Height, cfg.Width, 4)
	batches := data.Batches(8)
	opts := engine.Config{LR: 0.05, Momentum: 0.9}
	train := func(prog sched.Program) (*distill.Workbench, engine.Result) {
		w := distill.NewTinyWorkbench(cfg)
		return w, engine.Run(w, batches, prog, opts)
	}

	// Reference: plain sequential blockwise distillation.
	seq := distill.NewTinyWorkbench(cfg)
	seqRes := engine.RunSequential(seq, batches, opts.LR, opts.Momentum)

	// DP: two ranks share every batch and train one block per pass over
	// the data, re-running the teacher below it. Internal relaying is the
	// same shards and the same gradient fold with all blocks in one step.
	dp, dpRes := train(sched.DataParallel(2, cfg.Blocks))
	ir, irRes := train(sched.TeacherRelaying(sched.InternalRelaying(2, cfg.Blocks), true))

	// LS: every block is its own job on the full batch behind its own
	// teacher prefix, packed onto three devices by a static estimate
	// (prefix forward plus three forwards' worth of student).
	est := make([]float64, cfg.Blocks)
	for u := range est {
		est[u] = float64(u + 1 + 3)
	}
	ls, lsRes := train(sched.Layerwise(est, 3))

	// Pipe-BD: two devices, teacher relaying + decoupled updates,
	// running as real goroutines with channel relays.
	pipe, pipeRes := train(sched.TeacherRelaying(sched.Plan{Name: "tr", Groups: []sched.Group{
		{Devices: []int{0}, Blocks: []int{0, 1}},
		{Devices: []int{1}, Blocks: []int{2, 3}},
	}}, true))

	// Hybrid: AHD-style group sharing block 0-1 across two devices.
	hybrid, _ := train(sched.TeacherRelaying(sched.Plan{Name: "hybrid", Groups: []sched.Group{
		{Devices: []int{0, 1}, Blocks: []int{0, 1}},
		{Devices: []int{2}, Blocks: []int{2, 3}},
	}}, true))

	fmt.Println("block losses, first -> last step:")
	for b := range seqRes.Loss {
		n := len(seqRes.Loss[b])
		fmt.Printf("  block %d: sequential %.4f -> %.4f   pipelined %.4f -> %.4f   DP %.4f -> %.4f\n",
			b, seqRes.Loss[b][0], seqRes.Loss[b][n-1], pipeRes.Loss[b][0], pipeRes.Loss[b][n-1],
			dpRes.Loss[b][0], dpRes.Loss[b][n-1])
	}

	// same reports whether two runs ended on the same weights: bit for
	// bit, or within tol where a split group folds gradients in another
	// float32 order than the full batch does.
	same := func(a, b *distill.Workbench, tol float64) bool {
		for blk := 0; blk < a.NumBlocks(); blk++ {
			pa, pb := a.StudentParams(blk), b.StudentParams(blk)
			for i := range pa {
				equal := pa[i].Value.Equal(pb[i].Value)
				if tol > 0 {
					equal = pa[i].Value.AllClose(pb[i].Value, tol, tol)
				}
				if !equal {
					return false
				}
			}
		}
		return true
	}
	sameLosses := func(a, b engine.Result) bool {
		for blk := range a.Loss {
			for s := range a.Loss[blk] {
				if a.Loss[blk][s] != b.Loss[blk][s] {
					return false
				}
			}
		}
		return true
	}
	checks := []struct {
		claim string
		holds bool
	}{
		{"pipelined TR+DPU bit-identical to sequential:    ", same(seq, pipe, 0) && sameLosses(seqRes, pipeRes)},
		{"LS baseline bit-identical to sequential:         ", same(seq, ls, 0) && sameLosses(seqRes, lsRes)},
		{"DP baseline bit-identical to internal relaying:  ", same(ir, dp, 0) && sameLosses(irRes, dpRes)},
		{"DP baseline matches sequential within 1e-3:      ", same(seq, dp, 1e-3)},
		{"hybrid-group weights match sequential within 1e-3:", same(seq, hybrid, 1e-3)},
	}
	fmt.Println()
	ok := true
	for _, c := range checks {
		fmt.Println(c.claim, c.holds)
		ok = ok && c.holds
	}
	if !ok {
		panic("equivalence violated — a schedule must not change the mathematics")
	}
}
