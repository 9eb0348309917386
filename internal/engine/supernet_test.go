package engine

import (
	"testing"

	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/sched"
)

// TestSupernetSearchBitEquivalence extends the equivalence result to the
// NAS workload: architecture parameters are ordinary trainable weights,
// so a Pipe-BD pipelined search must reproduce the sequential search
// bit for bit — same α trajectories, same derived architecture.
func TestSupernetSearchBitEquivalence(t *testing.T) {
	cfg := distill.DefaultSupernetConfig()
	data := dataset.NewRandom(3, 48, 3, cfg.Height, cfg.Width, 4)
	batches := data.Batches(8)

	seq := distill.NewTinySupernetWorkbench(cfg)
	RunSequential(seq, batches, 0.05, 0.9)

	pipe := distill.NewTinySupernetWorkbench(cfg)
	plan := sched.Plan{Name: "tr", Groups: []sched.Group{
		{Devices: []int{0}, Blocks: []int{0}},
		{Devices: []int{1}, Blocks: []int{1}},
		{Devices: []int{2}, Blocks: []int{2}},
	}}
	RunPipelined(pipe, batches, Config{Plan: plan, DPU: true, LR: 0.05, Momentum: 0.9})

	for b := 0; b < seq.NumBlocks(); b++ {
		ps, pp := seq.StudentParams(b), pipe.StudentParams(b)
		for i := range ps {
			if !ps[i].Value.Equal(pp[i].Value) {
				t.Fatalf("block %d param %q differs between schedules", b, ps[i].Name)
			}
		}
	}
	archSeq := distill.DeriveArchitecture(seq)
	archPipe := distill.DeriveArchitecture(pipe)
	for b := range archSeq {
		if archSeq[b] != archPipe[b] {
			t.Fatalf("derived architectures differ at block %d", b)
		}
	}
}

// TestSupernetHybridGroupSearch checks the AHD-style data-parallel case
// on the supernet: gradient averaging keeps the α updates within float32
// reduction tolerance of sequential search.
func TestSupernetHybridGroupSearch(t *testing.T) {
	cfg := distill.DefaultSupernetConfig()
	data := dataset.NewRandom(4, 48, 3, cfg.Height, cfg.Width, 4)
	batches := data.Batches(8)

	seq := distill.NewTinySupernetWorkbench(cfg)
	RunSequential(seq, batches, 0.05, 0.9)

	pipe := distill.NewTinySupernetWorkbench(cfg)
	plan := sched.Plan{Name: "hybrid", Groups: []sched.Group{
		{Devices: []int{0, 1}, Blocks: []int{0, 1}},
		{Devices: []int{2}, Blocks: []int{2}},
	}}
	RunPipelined(pipe, batches, Config{Plan: plan, DPU: true, LR: 0.05, Momentum: 0.9})

	for b := 0; b < seq.NumBlocks(); b++ {
		ps, pp := seq.StudentParams(b), pipe.StudentParams(b)
		for i := range ps {
			if !ps[i].Value.AllClose(pp[i].Value, 1e-3, 1e-3) {
				t.Fatalf("block %d param %q beyond tolerance", b, ps[i].Name)
			}
		}
	}
}
