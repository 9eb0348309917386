package main

import (
	"sync"

	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/nn"
	"pipebd/internal/tensor"
)

// runDP is the data-parallel baseline Pipe-BD is measured against (the
// paper's Fig. 3a), composed from public calls because the engine has no
// RunDP yet: blocks are trained one after another, and for block b every
// one of the ranks runs the frozen teacher blocks 0..b-1 on its shard of
// the batch — the redundant teacher work Pipe-BD removes — then one
// distillation step on pair b; the shard gradients are averaged in
// ascending rank order and every replica takes the same SGD step.
//
// Rank 0 trains wb itself, so wb holds the result. The batch need not
// divide evenly: shards differ by at most one row and the average is
// weighted by rows, which keeps it the full-batch gradient.
func runDP(wb *distill.Workbench, batches []dataset.Batch, ranks int) engine.Result {
	nb := wb.NumBlocks()
	res := engine.Result{Loss: make([][]float64, nb)}
	replicas := make([]*distill.Workbench, ranks)
	replicas[0] = wb
	for r := 1; r < ranks; r++ {
		replicas[r] = wb.Replica()
	}
	for b := 0; b < nb; b++ {
		res.Loss[b] = make([]float64, len(batches))
		opts := make([]*nn.SGD, ranks)
		for r := range opts {
			opts[r] = nn.NewSGD(lr, momentum, 0)
		}
		for s, batch := range batches {
			rows := batch.X.Dim(0)
			losses := make([]float64, ranks)
			var wg sync.WaitGroup
			for r := 0; r < ranks; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					x := rowsOf(batch.X, r*rows/ranks, (r+1)*rows/ranks)
					for t := 0; t < b; t++ {
						x = replicas[r].Pairs[t].Teacher.Forward(x, false)
					}
					nn.ZeroGrads(replicas[r].StudentParams(b))
					_, losses[r] = distill.Step(replicas[r].Pairs[b], x)
				}(r)
			}
			wg.Wait()
			// All-reduce: rank 0's gradients become the row-weighted mean,
			// summed in ascending rank order, then every rank gets a copy.
			params0 := replicas[0].StudentParams(b)
			for pi, p := range params0 {
				mean := tensor.New(p.Grad.Shape()...)
				for r := 0; r < ranks; r++ {
					share := float32((r+1)*rows/ranks-r*rows/ranks) / float32(rows)
					tensor.Default().Axpy(mean, share, replicas[r].StudentParams(b)[pi].Grad)
				}
				for r := 0; r < ranks; r++ {
					replicas[r].StudentParams(b)[pi].Grad.CopyFrom(mean)
				}
			}
			for r := 0; r < ranks; r++ {
				opts[r].Step(replicas[r].StudentParams(b))
				res.Loss[b][s] += losses[r] * float64((r+1)*rows/ranks-r*rows/ranks) / float64(rows)
			}
		}
	}
	return res
}

// rowsOf copies rows [from, to) of t's leading dimension.
func rowsOf(t *tensor.Tensor, from, to int) *tensor.Tensor {
	shape := append([]int{to - from}, t.Shape()[1:]...)
	per := t.Numel() / t.Dim(0)
	out := tensor.New(shape...)
	copy(out.Data(), t.Data()[from*per:to*per])
	return out
}
