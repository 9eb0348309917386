package engine

import (
	"math/rand"
	"sync"
	"testing"

	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

func tinyBatches(t *testing.T, n, batch int) []dataset.Batch {
	t.Helper()
	cfg := distill.DefaultTinyConfig()
	data := dataset.NewRandom(7, n*batch, 3, cfg.Height, cfg.Width, 4)
	return data.Batches(batch)
}

func plan(groups ...sched.Group) sched.Plan {
	return sched.Plan{Name: "test", Groups: groups}
}

func g(devs, blocks []int) sched.Group { return sched.Group{Devices: devs, Blocks: blocks} }

// paramsEqual compares every student parameter of two workbenches.
func paramsEqual(t *testing.T, a, b *distill.Workbench, exact bool, tol float64) bool {
	t.Helper()
	for blk := 0; blk < a.NumBlocks(); blk++ {
		pa, pb := a.StudentParams(blk), b.StudentParams(blk)
		if len(pa) != len(pb) {
			t.Fatalf("block %d: param count mismatch", blk)
		}
		for i := range pa {
			if exact {
				if !pa[i].Value.Equal(pb[i].Value) {
					return false
				}
			} else if !pa[i].Value.AllClose(pb[i].Value, tol, tol) {
				return false
			}
		}
	}
	return true
}

// TestPipelinedTRBitEquivalence is the core claim of the paper: teacher
// relaying with decoupled parameter updates changes scheduling only —
// the trained weights must be bit-identical to sequential training.
func TestPipelinedTRBitEquivalence(t *testing.T) {
	batches := tinyBatches(t, 6, 8)
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	seqRes := RunSequential(ref, batches, 0.05, 0.9)

	for name, p := range map[string]sched.Plan{
		"2dev": plan(g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3})),
		"4dev": plan(g([]int{0}, []int{0}), g([]int{1}, []int{1}), g([]int{2}, []int{2}), g([]int{3}, []int{3})),
	} {
		for _, dpu := range []bool{false, true} {
			w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
			pipRes := RunPipelined(w, batches, Config{Plan: p, DPU: dpu, LR: 0.05, Momentum: 0.9})
			if !paramsEqual(t, ref, w, true, 0) {
				t.Errorf("%s dpu=%v: pipelined weights differ from sequential", name, dpu)
			}
			for b := range seqRes.Loss {
				for s := range seqRes.Loss[b] {
					if seqRes.Loss[b][s] != pipRes.Loss[b][s] {
						t.Fatalf("%s dpu=%v: loss trajectory diverged at block %d step %d", name, dpu, b, s)
					}
				}
			}
		}
	}
}

// TestDPUDoesNotChangeMath verifies the specific claim of §IV-B: removing
// the update barrier cannot alter any trained value because blocks have
// no weight dependencies on each other.
func TestDPUDoesNotChangeMath(t *testing.T) {
	batches := tinyBatches(t, 5, 8)
	p := plan(g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3}))

	w1 := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	RunPipelined(w1, batches, Config{Plan: p, DPU: false, LR: 0.05, Momentum: 0.9})
	w2 := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	RunPipelined(w2, batches, Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})
	if !paramsEqual(t, w1, w2, true, 0) {
		t.Fatal("DPU changed trained weights")
	}
}

// TestHybridGroupMatchesSequential checks AHD's data-parallel sharing:
// averaging shard gradients equals the full-batch gradient up to float32
// reduction order, so hybrid training must match sequential training
// within a tight tolerance (and all replicas must stay bit-identical).
func TestHybridGroupMatchesSequential(t *testing.T) {
	batches := tinyBatches(t, 6, 8)
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	RunSequential(ref, batches, 0.05, 0.9)

	p := plan(g([]int{0, 1}, []int{0, 1}), g([]int{2}, []int{2, 3}))
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	RunPipelined(w, batches, Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})
	if !paramsEqual(t, ref, w, false, 1e-3) {
		t.Fatal("hybrid-group training diverged from sequential beyond tolerance")
	}
}

// TestInternalRelayingMatchesSequential: IR is the all-blocks-shared
// special case.
func TestInternalRelayingMatchesSequential(t *testing.T) {
	batches := tinyBatches(t, 4, 8)
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	RunSequential(ref, batches, 0.05, 0.9)

	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	p := sched.InternalRelaying(2, 4)
	RunPipelined(w, batches, Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})
	if !paramsEqual(t, ref, w, false, 1e-3) {
		t.Fatal("internal relaying diverged from sequential beyond tolerance")
	}
}

func TestTrainingReducesDistillationLoss(t *testing.T) {
	batches := tinyBatches(t, 40, 8)
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	p := plan(g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3}))
	res := RunPipelined(w, batches, Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})
	for b := range res.Loss {
		first, last := res.Loss[b][0], res.Loss[b][len(res.Loss[b])-1]
		if last > first*0.7 {
			t.Errorf("block %d: loss did not decrease enough (%v -> %v)", b, first, last)
		}
	}
}

func TestPipelineDepthInvariance(t *testing.T) {
	// The relay buffer size is pure scheduling: results must be
	// bit-identical across depths.
	batches := tinyBatches(t, 5, 8)
	p := plan(g([]int{0}, []int{0}), g([]int{1}, []int{1}), g([]int{2}, []int{2, 3}))
	var ref *distill.Workbench
	defer func(was int) { relayDepth = was }(relayDepth)
	for _, depth := range []int{1, 2, 8} {
		w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
		relayDepth = depth
		RunPipelined(w, batches, Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})
		if ref == nil {
			ref = w
			continue
		}
		if !paramsEqual(t, ref, w, true, 0) {
			t.Fatalf("buffer depth %d changed results", depth)
		}
	}
}

func TestConcurrentRunsAreIndependent(t *testing.T) {
	// Two pipelined runs in parallel must not interfere (no hidden
	// global state).
	batches := tinyBatches(t, 4, 8)
	p := plan(g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3}))
	var wg sync.WaitGroup
	results := make([]*distill.Workbench, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
			RunPipelined(w, batches, Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})
			results[i] = w
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if !paramsEqual(t, results[0], results[i], true, 0) {
			t.Fatal("concurrent runs interfered with each other")
		}
	}
}

func TestStudentLearnsTeacherFunction(t *testing.T) {
	// End-to-end Table II claim in miniature: after blockwise
	// distillation, the full student predicts the teacher's labels far
	// better than chance.
	cfg := distill.DefaultTinyConfig()
	cfg.Classes = 4
	w := distill.NewTinyWorkbench(cfg)

	rng := rand.New(rand.NewSource(11))
	labeller := func(x *tensor.Tensor) []int {
		return tensor.ArgMaxRow(w.TeacherForward(x).Reshape(x.Dim(0), cfg.Classes))
	}
	train := tensor.Rand(rng, -1, 1, 160, 3, cfg.Height, cfg.Width)
	batches := make([]dataset.Batch, 0, 20)
	for i := 0; i < 20; i++ {
		b := tensor.New(8, 3, cfg.Height, cfg.Width)
		copy(b.Data(), train.Data()[i*b.Numel():(i+1)*b.Numel()])
		batches = append(batches, dataset.Batch{X: b})
	}
	// Repeat the epoch several times.
	var all []dataset.Batch
	for e := 0; e < 15; e++ {
		all = append(all, batches...)
	}
	p := plan(g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3}))
	RunPipelined(w, all, Config{Plan: p, DPU: true, LR: 0.03, Momentum: 0.9})

	test := tensor.Rand(rng, -1, 1, 64, 3, cfg.Height, cfg.Width)
	teacherLabels := labeller(test)
	studentLogits := w.StudentForward(test).Reshape(64, cfg.Classes)
	pred := tensor.ArgMaxRow(studentLogits)
	agree := 0
	for i := range pred {
		if pred[i] == teacherLabels[i] {
			agree++
		}
	}
	if frac := float64(agree) / 64; frac < 0.6 {
		t.Fatalf("student agrees with teacher on only %.0f%% of samples", frac*100)
	}
}

func TestRunPipelinedValidatesPlan(t *testing.T) {
	batches := tinyBatches(t, 2, 8)
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid plan")
		}
	}()
	RunPipelined(w, batches, Config{Plan: plan(g([]int{0}, []int{0})), LR: 0.1})
}
