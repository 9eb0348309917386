package engine

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/nn"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

// The step memory changes where a device loop's tensors live, never what
// they hold. These tests pin the three ways that could go wrong: a
// tensor that outlives its step (the relayed boundary activation), a
// kernel that reads a recycled buffer before writing it, and a step
// that quietly allocates again.

var (
	planTR2    = plan(g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3}))
	planHybrid = plan(g([]int{0, 1}, []int{0, 1}), g([]int{2}, []int{2, 3}))
)

// family is one model family at the benchmark's in-process sizes.
type family struct {
	name    string
	bench   func() *distill.Workbench
	batches func(steps int) []dataset.Batch
}

func families() []family {
	conv := distill.TinyConfig{Seed: 42, Blocks: 4, Channels: 16, Height: 16, Width: 16}
	xfmr := distill.TransformerConfig{Seed: 46, Blocks: 4, Dim: 64, Heads: 4, TeacherFF: 256,
		StudentFF: 64, SeqLen: 32, Vocab: 512, Classes: 8, Temp: 2}
	const batch = 16
	return []family{
		{"conv", func() *distill.Workbench { return distill.NewTinyWorkbench(conv) },
			func(steps int) []dataset.Batch {
				return dataset.NewRandom(rand.New(rand.NewSource(7)), steps*batch, 3, conv.Height, conv.Width, 4).Batches(batch)
			}},
		{"transformer", func() *distill.Workbench { return distill.NewTransformerWorkbench(xfmr) },
			func(steps int) []dataset.Batch {
				return dataset.NewTokens(rand.New(rand.NewSource(7)), steps*batch, xfmr.SeqLen, xfmr.Vocab, xfmr.Classes).Batches(batch)
			}},
	}
}

// sequentialNoArena is RunSequential written against distill.Step alone:
// no arena is ever attached, so every tensor is a fresh zeroed
// allocation. It is the oracle the arena runs are compared with.
func sequentialNoArena(w *distill.Workbench, batches []dataset.Batch, lr, momentum float32) Result {
	res := Result{Loss: make([][]float64, w.NumBlocks())}
	opts := make([]*nn.SGD, w.NumBlocks())
	for b := range opts {
		opts[b] = nn.NewSGD(lr, momentum, 0)
		res.Loss[b] = make([]float64, len(batches))
	}
	for s, batch := range batches {
		x := batch.X
		for b, pair := range w.Pairs {
			nn.ZeroGrads(pair.Student.Params())
			x, res.Loss[b][s] = distill.Step(pair, x)
			opts[b].Step(pair.Student.Params())
		}
	}
	return res
}

// lossesEqual reports whether b is a's trajectory bit for bit; a NaN
// equals nothing, itself included.
func lossesEqual(a, b Result) bool {
	for blk := range a.Loss {
		for s := range a.Loss[blk] {
			if a.Loss[blk][s] != b.Loss[blk][s] {
				return false
			}
		}
	}
	return true
}

// TestPoisonedArenaBitIdentical fills every recycled buffer with NaN at
// each reset. A kernel that reads an arena buffer before writing
// it (an output taken with Get that needed GetZeroed) then poisons the
// losses and weights; an arena-less sequential run is the reference.
func TestPoisonedArenaBitIdentical(t *testing.T) {
	poisonFreed = true
	defer func() { poisonFreed = false }()
	parallel, _ := tensor.Lookup("parallel")
	for _, f := range families() {
		batches := f.batches(3)
		ref := f.bench()
		want := sequentialNoArena(ref, batches, 0.05, 0.9)

		seq := f.bench()
		if got := RunSequential(seq, batches, 0.05, 0.9); !lossesEqual(want, got) || !paramsEqual(t, ref, seq, true, 0) {
			t.Errorf("%s: poisoned RunSequential differs from the arena-less loop", f.name)
		}
		tr := f.bench()
		got := RunPipelined(tr, batches, Config{Plan: planTR2, DPU: true, LR: 0.05, Momentum: 0.9, Backend: parallel})
		if !lossesEqual(want, got) || !paramsEqual(t, ref, tr, true, 0) {
			t.Errorf("%s tr2: poisoned pipelined run differs from the arena-less loop", f.name)
		}
		// A split group averages shard gradients — another float32 order —
		// so hybrid is held to the tolerance the other hybrid tests use;
		// one NaN anywhere (AllClose and a self-comparison both reject it)
		// fails it all the same.
		hy := f.bench()
		got = RunPipelined(hy, batches, Config{Plan: planHybrid, DPU: true, LR: 0.05, Momentum: 0.9})
		if !paramsEqual(t, ref, hy, false, 1e-3) || !lossesEqual(got, got) {
			t.Errorf("%s hybrid: poisoned pipelined run diverged from the arena-less loop", f.name)
		}

		// The run detached its arena: the trained workbench allocates
		// normally, two evaluations do not share memory.
		a, b := tr.StudentForward(batches[0].X), tr.StudentForward(batches[0].X)
		if &a.Data()[0] == &b.Data()[0] || !a.Equal(b) {
			t.Errorf("%s: evaluations after the run share memory or differ", f.name)
		}
	}
}

// TestBoundaryActivationOutlivesProducerStep: with the consumer slowed,
// the tr2 producer runs the full relay depth ahead, recycling its arena
// while earlier boundary activations still sit in the channel. The
// in-process link must have copied them.
func TestBoundaryActivationOutlivesProducerStep(t *testing.T) {
	batches := tinyBatches(t, 8, 8)
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	want := RunSequential(ref, batches, 0.05, 0.9)

	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	slow := tensor.NewThrottled(tensor.Serial{}, 20)
	for _, p := range w.Pairs[2:] {
		nn.ApplyBackend(p.Teacher, slow)
		nn.ApplyBackend(p.Student, slow)
	}
	got := RunPipelined(w, batches, Config{Plan: planTR2, DPU: true, LR: 0.05, Momentum: 0.9})
	if !lossesEqual(want, got) || !paramsEqual(t, ref, w, true, 0) {
		t.Fatal("a slowed consumer read a boundary activation its producer had already recycled")
	}
}

// allocBytes is the heap allocated by f, on every goroutine.
func allocBytes(f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc - m0.TotalAlloc)
}

// TestSteadyStateStepAllocs: once the first step has sized the arenas, a
// step allocates only what cannot come from them — the boundary copy the
// in-process link makes, Reshape headers, parameter lists, GEMM driver
// closures, loss rows. The cost of steps >= 1 is the difference between a
// 9-step and a 1-step run of the same plan; step 0 (with the run's
// set-up) is the 1-step run. Every run starts with the pool of arenas
// emptied, so that step 0 is the cold one, and with the pool of GEMM pack
// buffers warm; an occasional miss in that pool costs megabytes, so each
// run is repeated and the cheapest repetition counts.
func TestSteadyStateStepAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("under -race sync.Pool drops a quarter of what is put back")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const steps, reps = 9, 5
	// Bytes per steady-state step, all devices together. The boundary
	// copy is 16·16·16·16·4 = 262 KB (conv) and 16·32·64·4 = 131 KB
	// (transformer); the rest measured 5 KB and 33-50 KB.
	bound := map[string]float64{"conv": 300e3, "transformer": 220e3}
	for _, f := range families() {
		for name, p := range map[string]sched.Plan{"tr2": planTR2, "hybrid": planHybrid} {
			batches := f.batches(steps)
			run := func(n int) float64 {
				least := math.Inf(1)
				for i := 0; i < reps; i++ {
					w := f.bench()
					arenas = sync.Pool{New: arenas.New}
					least = min(least, allocBytes(func() {
						RunPipelined(w, batches[:n], Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})
					}))
				}
				return least
			}
			run(steps) // warms the pack-buffer pool
			first := run(1)
			perStep := (run(steps) - first) / (steps - 1)
			t.Logf("%s %s: step 0 %.0f B, steady-state step %.0f B", f.name, name, first, perStep)
			if perStep > bound[f.name] || perStep > first/20 {
				t.Errorf("%s %s: a steady-state step allocates %.0f B (bound %.0f B, step 0 %.0f B)",
					f.name, name, perStep, bound[f.name], first)
			}
		}
	}
}
