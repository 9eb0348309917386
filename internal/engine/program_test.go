package engine

import (
	"testing"

	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

// The DP and LS baselines have no loop of their own: they are programs
// the device loop plays. These tests pin what that buys — each baseline
// is bit for bit a schedule the engine already proves — and the paper's
// argument against them, counted.

// ladderFamilies are the two workbenches at their default sizes, four
// blocks and batches of 8.
func ladderFamilies(t *testing.T, steps int) []family {
	return []family{
		{"conv", func() *distill.Workbench { return distill.NewTinyWorkbench(distill.DefaultTinyConfig()) },
			func(int) []dataset.Batch { return tinyBatches(t, steps, 8) }},
		{"transformer", newTransformerBench,
			func(int) []dataset.Batch { return tokenBatches(t, steps, 8) }},
	}
}

// backends returns the serial default (nil) and the parallel backend.
func backends(t *testing.T) map[string]tensor.Backend {
	parallel, ok := tensor.Lookup("parallel")
	if !ok {
		t.Fatal("parallel backend not registered")
	}
	return map[string]tensor.Backend{"serial": nil, "parallel": parallel}
}

// layerwise packs four equal-cost blocks the way LS estimates a task:
// its teacher prefix forward plus three forwards' worth of student.
func layerwise(nDev int) sched.Program {
	return sched.Layerwise([]float64{1 + 3, 2 + 3, 3 + 3, 4 + 3}, nDev)
}

// TestDataParallelMatchesInternalRelaying: DP trains one block per pass
// over the data, IR all blocks in every step, and nothing else differs —
// same shards, same ascending-rank gradient fold, and a block's
// trajectory depends on no other block's because the teacher is frozen.
// Losses and weights must agree bit for bit.
func TestDataParallelMatchesInternalRelaying(t *testing.T) {
	for _, f := range ladderFamilies(t, 4) {
		batches := f.batches(0)
		for name, be := range backends(t) {
			for _, nDev := range []int{2, 4} {
				cfg := Config{Plan: sched.InternalRelaying(nDev, 4), DPU: true, LR: 0.05, Momentum: 0.9, Backend: be}
				ir := f.bench()
				want := RunPipelined(ir, batches, cfg)
				dp := f.bench()
				got := Run(dp, batches, sched.DataParallel(nDev, 4), cfg)
				if !lossesEqual(want, got) || !paramsEqual(t, ir, dp, true, 0) {
					t.Errorf("%s %s %d devices: the DP program differs from internal relaying", f.name, name, nDev)
				}
			}
		}
	}
}

// TestLayerwiseMatchesSequential: an LS task trains its block on the full
// batch behind its own teacher prefix, which is sequential training with
// the blocks dealt out to devices. Bit for bit, however they are dealt.
func TestLayerwiseMatchesSequential(t *testing.T) {
	for _, f := range ladderFamilies(t, 4) {
		batches := f.batches(0)
		ref := f.bench()
		want := RunSequential(ref, batches, 0.05, 0.9)
		for name, be := range backends(t) {
			for _, nDev := range []int{2, 3} {
				w := f.bench()
				got := Run(w, batches, layerwise(nDev), Config{LR: 0.05, Momentum: 0.9, Backend: be})
				if !lossesEqual(want, got) || !paramsEqual(t, ref, w, true, 0) {
					t.Errorf("%s %s %d devices: the LS program differs from sequential training", f.name, name, nDev)
				}
			}
		}
	}
}

// TestRedundantTeacherExecution is the paper's case against the baselines
// as a count: with four blocks, teacher relaying runs each teacher block
// once a step, four forwards in all; an LS step runs 1+2+3+4 = 10 over
// its tasks, and under DP every rank runs those 10 on its shard.
func TestRedundantTeacherExecution(t *testing.T) {
	const steps = 3
	batches := tinyBatches(t, steps, 8)
	forwards := func(prog sched.Program) (perDevice []int, total int) {
		tr := obs.NewTracer(true)
		Run(distill.NewTinyWorkbench(distill.DefaultTinyConfig()), batches, prog, Config{LR: 0.05, Momentum: 0.9, Trace: tr})
		for _, tk := range tr.Tracks() {
			n := 0
			for _, s := range tk.Drain() {
				if s.Name == "teacher_fwd" {
					n++
				}
			}
			perDevice = append(perDevice, n)
			total += n
		}
		return perDevice, total
	}
	if _, n := forwards(sched.TeacherRelaying(planTR2, true)); n != 4*steps {
		t.Errorf("teacher relaying ran %d teacher forwards in %d steps, want 4 a step", n, steps)
	}
	if _, n := forwards(layerwise(3)); n != 10*steps {
		t.Errorf("LS ran %d teacher forwards in %d steps, want 10 a step", n, steps)
	}
	perDevice, _ := forwards(sched.DataParallel(2, 4))
	for d, n := range perDevice {
		if n != 10*steps {
			t.Errorf("DP rank %d ran %d teacher forwards in %d steps, want 10 a step", d, n, steps)
		}
	}
}

// TestRunValidatesProgram: a program the device loop cannot play — here a
// barrier program that leaves a device out of a phase, which would
// deadlock the step barrier — is refused before any goroutine starts.
func TestRunValidatesProgram(t *testing.T) {
	prog := sched.DataParallel(2, 4)
	prog.Phases[1][0].Devices = []int{0}
	prog.Barrier = true
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on an unplayable program")
		}
	}()
	Run(distill.NewTinyWorkbench(distill.DefaultTinyConfig()), tinyBatches(t, 2, 8), prog, Config{LR: 0.1})
}
