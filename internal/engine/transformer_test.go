package engine

import (
	"math"
	"math/rand"
	"testing"

	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

// The transformer workbench must enjoy the same central equivalence the
// conv workbenches do: the engine is workload-agnostic, so pipelined
// scheduling, DPU, and backend swaps change throughput only — never the
// training trajectory. These tests pin that for encoder blocks with
// batched-GEMM attention and KL logit distillation.

// tokenData is n token sequences of length l: dataset.TokenRows'
// samples 0 to n-1 under seed.
func tokenData(seed int64, n, l, vocab, classes int) *dataset.Synthetic {
	s := &dataset.Synthetic{X: tensor.New(n, l), Labels: make([]int, n), Classes: classes}
	dataset.TokenRows(seed, 0, l, vocab, classes, s.X.Data(), s.Labels)
	return s
}

func tokenBatches(t *testing.T, n, batch int) []dataset.Batch {
	t.Helper()
	cfg := distill.DefaultTransformerConfig()
	data := tokenData(7, n*batch, cfg.SeqLen, cfg.Vocab, cfg.Classes)
	return data.Batches(batch)
}

func newTransformerBench() *distill.Workbench {
	return distill.NewTransformerWorkbench(distill.DefaultTransformerConfig())
}

// TestTransformerPipelinedBitEquivalence: the paper's bit-identity claim
// on the transformer workload — pipelined teacher relaying (with and
// without DPU, unsplit and split plans) must reproduce sequential
// training exactly.
func TestTransformerPipelinedBitEquivalence(t *testing.T) {
	batches := tokenBatches(t, 6, 8)
	ref := newTransformerBench()
	seqRes := RunSequential(ref, batches, 0.05, 0.9)

	for name, p := range map[string]sched.Plan{
		"2dev": plan(g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3})),
		"4dev": plan(g([]int{0}, []int{0}), g([]int{1}, []int{1}), g([]int{2}, []int{2}), g([]int{3}, []int{3})),
	} {
		for _, dpu := range []bool{false, true} {
			w := newTransformerBench()
			pipRes := RunPipelined(w, batches, Config{Plan: p, DPU: dpu, LR: 0.05, Momentum: 0.9})
			if !paramsEqual(t, ref, w, true, 0) {
				t.Errorf("%s dpu=%v: pipelined transformer weights differ from sequential", name, dpu)
			}
			for b := range seqRes.Loss {
				for s := range seqRes.Loss[b] {
					if seqRes.Loss[b][s] != pipRes.Loss[b][s] {
						t.Fatalf("%s dpu=%v: loss diverged at block %d step %d", name, dpu, b, s)
					}
				}
			}
		}
	}
}

// TestTransformerParallelBackendBitEquivalence swaps in the parallel
// backend, which routes the attention GEMMs through the batched packed
// kernels — the trajectory must still match the serial sequential
// reference bit-for-bit.
func TestTransformerParallelBackendBitEquivalence(t *testing.T) {
	batches := tokenBatches(t, 4, 8)
	ref := newTransformerBench()
	seqRes := RunSequential(ref, batches, 0.05, 0.9)

	parallel, ok := tensor.Lookup("parallel")
	if !ok {
		t.Fatal("parallel backend not registered")
	}
	for _, dpu := range []bool{false, true} {
		w := newTransformerBench()
		pipRes := RunPipelined(w, batches, Config{
			Plan: plan(g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3})),
			DPU:  dpu, LR: 0.05, Momentum: 0.9,
			Backend: parallel,
		})
		if !paramsEqual(t, ref, w, true, 0) {
			t.Errorf("dpu=%v: parallel-backend transformer weights differ from serial sequential", dpu)
		}
		for b := range seqRes.Loss {
			for s := range seqRes.Loss[b] {
				if seqRes.Loss[b][s] != pipRes.Loss[b][s] {
					t.Fatalf("dpu=%v: loss diverged at block %d step %d", dpu, b, s)
				}
			}
		}
	}
}

// TestTransformerHybridGroupMatchesSequential: batch-sharded encoder
// groups average shard gradients, equal to the full-batch gradient up to
// float32 reduction order.
func TestTransformerHybridGroupMatchesSequential(t *testing.T) {
	batches := tokenBatches(t, 6, 8)
	ref := newTransformerBench()
	RunSequential(ref, batches, 0.05, 0.9)

	p := plan(g([]int{0, 1}, []int{0, 1}), g([]int{2}, []int{2, 3}))
	w := newTransformerBench()
	RunPipelined(w, batches, Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})
	if !paramsEqual(t, ref, w, false, 1e-3) {
		t.Fatal("hybrid-group transformer training diverged from sequential beyond tolerance")
	}
}

// TestTransformerTrainingReducesLoss: the KL logit block and the MSE
// hidden-state blocks must all actually learn on the synthetic token
// task.
func TestTransformerTrainingReducesLoss(t *testing.T) {
	batches := tokenBatches(t, 40, 8)
	w := newTransformerBench()
	p := plan(g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3}))
	res := RunPipelined(w, batches, Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})
	for b := range res.Loss {
		first, last := res.Loss[b][0], res.Loss[b][len(res.Loss[b])-1]
		if last > first*0.9 {
			t.Errorf("block %d: loss did not decrease enough (%v -> %v)", b, first, last)
		}
	}
}

// mathRandTokens is the token data the libm pins below were measured on:
// one math/rand stream from seed, every id in order, then every label.
func mathRandTokens(seed int64, n, l, vocab, classes int) *dataset.Synthetic {
	rng := rand.New(rand.NewSource(seed))
	s := &dataset.Synthetic{X: tensor.New(n, l), Labels: make([]int, n), Classes: classes}
	for i := range s.X.Data() {
		s.X.Data()[i] = float32(rng.Intn(vocab))
	}
	for i := range s.Labels {
		s.Labels[i] = rng.Intn(classes)
	}
	return s
}

// TestTransformerConvergesAsWithLibm: the float32 tanh and exp kernels
// under GELU and softmax are a different evaluation of the same
// mathematics, not a different model. Sixty-four sequential steps of the
// transformer `go run ./benchmark` trains (seed 1, data seed 2, batch 16)
// must end, block by block, within 1e-4 relative of where the float64
// math.Tanh / math.Exp evaluation they replaced ended; the trajectories
// agree far more closely than that: the worst block ends 6e-8 off.
func TestTransformerConvergesAsWithLibm(t *testing.T) {
	cfg := distill.TransformerConfig{Seed: 1, Blocks: 4, Dim: 64, Heads: 4, TeacherFF: 256,
		StudentFF: 64, SeqLen: 32, Vocab: 512, Classes: 8, Temp: 2}
	const steps, batch = 64, 16
	data := mathRandTokens(2, steps*batch, cfg.SeqLen, cfg.Vocab, cfg.Classes)
	res := RunSequential(distill.NewTransformerWorkbench(cfg), data.Batches(batch), 0.05, 0.9)
	for b, want := range []float64{0.771980547, 0.237227493, 0.221574355, 0.0177579007} {
		got := float64(res.Loss[b][steps-1])
		t.Logf("block %d: final loss %.9g, with libm %.9g (%.1e relative)", b, got, want, math.Abs(got-want)/want)
		if math.Abs(got-want) > 1e-4*want {
			t.Errorf("block %d: final loss %.9g, more than 1e-4 relative from the libm evaluation's %.9g", b, got, want)
		}
	}
}
