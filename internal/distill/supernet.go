package distill

import (
	"fmt"
	"math/rand"

	"pipebd/internal/nn"
)

// Miniature NAS workload: each student block is a differentiable supernet
// cell (nn.MixedOp) whose candidates compete to mimic the teacher block —
// the numeric analogue of the paper's NAS workload, runnable through the
// same sequential and Pipe-BD engines as the compression workbench.

// SupernetConfig sizes the miniature NAS workbench.
type SupernetConfig struct {
	Seed     int64
	Blocks   int
	Channels int
	Height   int
	Width    int
}

// DefaultSupernetConfig returns the configuration used by tests and the
// mini-NAS example.
func DefaultSupernetConfig() SupernetConfig {
	return SupernetConfig{Seed: 77, Blocks: 3, Channels: 6, Height: 8, Width: 8}
}

// NewTinySupernetWorkbench builds a reproducible NAS distillation
// workload: teacher blocks are conv3x3-BN-ReLU; each student block is a
// MixedOp over three candidates — conv3x3, a depthwise-separable pair,
// and conv1x1 — followed by ReLU. Architecture parameters (α) are
// ordinary trainable parameters, so the engines' optimizers search the
// architecture while distilling, and DeriveArchitecture reads out the
// found per-block choices.
func NewTinySupernetWorkbench(cfg SupernetConfig) *Workbench {
	if cfg.Blocks <= 0 || cfg.Channels <= 0 {
		panic(fmt.Sprintf("distill: invalid supernet config %+v", cfg))
	}
	build := func() []Pair {
		rng := rand.New(rand.NewSource(cfg.Seed))
		pairs := make([]Pair, cfg.Blocks)
		for b := 0; b < cfg.Blocks; b++ {
			inC := cfg.Channels
			if b == 0 {
				inC = 3
			}
			teacher := nn.NewSequential(
				nn.NewConv2d(rng, inC, cfg.Channels, 3, 1, 1, false),
				nn.NewBatchNorm2d(cfg.Channels),
				nn.NewReLU(),
			)
			student := nn.NewSequential(
				nn.NewMixedOp(
					nn.NewConv2d(rng, inC, cfg.Channels, 3, 1, 1, true),
					nn.NewSequential(
						nn.NewDWConv2d(rng, inC, 3, 1, 1, false),
						nn.NewConv2d(rng, inC, cfg.Channels, 1, 1, 0, true),
					),
					nn.NewConv2d(rng, inC, cfg.Channels, 1, 1, 0, true),
				),
				nn.NewReLU(),
			)
			pairs[b] = newPair(teacher, student, nil)
		}
		warmTeachers(rng, pairs, cfg.Height, cfg.Width)
		return pairs
	}
	return NewWorkbench(build)
}

// CandidateNames are the supernet's per-block candidate operations in
// MixedOp branch order.
var CandidateNames = []string{"conv3x3", "dsconv3x3", "conv1x1"}

// DeriveArchitecture reads the found architecture from a supernet
// workbench: the max-α candidate index per block. It panics if the
// workbench's student blocks are not MixedOp cells.
func DeriveArchitecture(w *Workbench) []int {
	out := make([]int, w.NumBlocks())
	for b, p := range w.Pairs {
		seq, ok := p.Student.(*nn.Sequential)
		if !ok || len(seq.Layers) == 0 {
			panic("distill: student block is not a supernet cell")
		}
		mo, ok := seq.Layers[0].(*nn.MixedOp)
		if !ok {
			panic("distill: student block is not a supernet cell")
		}
		out[b] = mo.Derive()
	}
	return out
}

// ArchitectureWeights returns each block's candidate probabilities.
func ArchitectureWeights(w *Workbench) [][]float64 {
	out := make([][]float64, w.NumBlocks())
	for b, p := range w.Pairs {
		seq := p.Student.(*nn.Sequential)
		mo := seq.Layers[0].(*nn.MixedOp)
		out[b] = mo.Weights()
	}
	return out
}
