package engine

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/nn"
	"pipebd/internal/obs"
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
				return dataset.NewRandom(7, steps*batch, 3, conv.Height, conv.Width, 4).Batches(batch)
			}},
		{"transformer", func() *distill.Workbench { return distill.NewTransformerWorkbench(xfmr) },
			func(steps int) []dataset.Batch {
				return tokenData(7, steps*batch, xfmr.SeqLen, xfmr.Vocab, xfmr.Classes).Batches(batch)
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
// in-process link must have copied them. The run's spans show the
// producer did get that far ahead (relayLead), or the throttle slowed
// nothing and the copy went untested.
func TestBoundaryActivationOutlivesProducerStep(t *testing.T) {
	batches := tinyBatches(t, 8, 8)
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	want := RunSequential(ref, batches, 0.05, 0.9)

	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	slow := tensor.NewThrottled(tensor.Serial{}, 50)
	for _, p := range w.Pairs[2:] {
		nn.ApplyBackend(p.Teacher, slow)
		nn.ApplyBackend(p.Student, slow)
	}
	tr := obs.NewTracer(true)
	got := RunPipelined(w, batches, Config{Plan: planTR2, DPU: true, LR: 0.05, Momentum: 0.9, Trace: tr})
	if !lossesEqual(want, got) || !paramsEqual(t, ref, w, true, 0) {
		t.Fatal("a slowed consumer read a boundary activation its producer had already recycled")
	}
	tracks := tr.Tracks()
	if lead := relayLead(tracks[0].Drain(), tracks[1].Drain()); lead < relayDepth {
		t.Fatalf("the producer ran at most %d step(s) ahead of its consumer, never the relay depth of %d", lead, relayDepth)
	}
}

// relayLead is a lower bound on how many boundary activations ever sat in
// the relay channel at once, from the producer's and the consumer's
// spans: when the producer begins sending step s it has sent steps
// 0..s-1, and the consumer can have taken only those whose receive began
// earlier.
func relayLead(producer, consumer []obs.Span) int {
	var recvs []int64
	for _, sp := range consumer {
		if sp.Name == "recv_act" {
			recvs = append(recvs, sp.Start)
		}
	}
	lead, s := 0, 0
	for _, sp := range producer {
		if sp.Name != "send_output" {
			continue
		}
		taken := 0
		for taken < len(recvs) && recvs[taken] < sp.Start {
			taken++
		}
		lead = max(lead, s-taken)
		s++
	}
	return lead
}

// allocBytes is the heap allocated by f, on every goroutine.
func allocBytes(f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc - m0.TotalAlloc)
}

// oneKernel runs one GEMM or fused convolution at a time. The engine's
// arenas are lent in device order and repeat exactly, but a kernel call
// borrows its pack buffers from whichever pack arena is free, and a device
// whose call overlaps another's meets an arena it has not used and makes
// its buffers there, once: 0.4-4 MB at a moment the scheduler picks
// (measured in 1 run of 8 on one P, 1 of 6 on two), bounded by arenas ×
// shapes and no leak, but more than the step bounds below leave. With the
// calls taking turns, and the cache's per-P shortcut emptied of what
// earlier tests left there (collect), one pack arena serves them all,
// under any GOMAXPROCS and under -race; what the pack cache does for
// concurrent borrowers is tensor's TestArenasSurviveCollections.
type oneKernel struct {
	tensor.Serial
	mu *sync.Mutex
}

// collect runs the three collections that empty a sync.Pool for certain.
func collect() {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
}

func (b oneKernel) MatMulInto(out, x, y *tensor.Tensor) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.Serial.MatMulInto(out, x, y)
}
func (b oneKernel) MatMulTAInto(out, x, y *tensor.Tensor) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.Serial.MatMulTAInto(out, x, y)
}
func (b oneKernel) MatMulTBInto(out, x, y *tensor.Tensor) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.Serial.MatMulTBInto(out, x, y)
}
func (b oneKernel) MatMulBatchInto(out, x, y *tensor.Tensor) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.Serial.MatMulBatchInto(out, x, y)
}
func (b oneKernel) MatMulTABatchInto(out, x, y *tensor.Tensor) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.Serial.MatMulTABatchInto(out, x, y)
}
func (b oneKernel) MatMulTBBatchInto(out, x, y *tensor.Tensor) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.Serial.MatMulTBBatchInto(out, x, y)
}
func (b oneKernel) ConvForwardInto(out, w, x *tensor.Tensor, kh, kw, stride, pad int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.Serial.ConvForwardInto(out, w, x, kh, kw, stride, pad)
}
func (b oneKernel) ConvGradWeightInto(out, g, x *tensor.Tensor, kh, kw, stride, pad int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.Serial.ConvGradWeightInto(out, g, x, kh, kw, stride, pad)
}

// TestSteadyStateStepAllocs: once the arenas are sized, a step allocates
// only what cannot come from them — the boundary copy the in-process link
// makes, Reshape headers, parameter lists, loss rows; the GEMM drivers
// allocate nothing. The cost of one step is the difference between a
// 17-step and a 1-step run of the same plan, which share their set-up.
//
// The bounds are per steady-state step, all devices together. The
// boundary copy is 16·16·16·16·4 = 262 KB (conv) and 16·32·64·4 = 131 KB
// (transformer), the rest measures 2-3 KB and 8-13 KB, every run. The
// 35 KB and 36 KB left are what a leak may cost a step and pass; one
// activation that stopped coming from an arena (262 KB, 131 KB) may not.
// The old relative check, a steady step under a twentieth of a cold step
// 0, needed the caches emptied to have a cold step and was never the
// tighter of the two (a cold step 0 is 9-26 MB).
func TestSteadyStateStepAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	collect()
	const steps = 17
	bound := map[string]float64{"conv": 300e3, "transformer": 180e3}
	for _, f := range families() {
		for name, p := range map[string]sched.Plan{"tr2": planTR2, "hybrid": planHybrid} {
			batches := f.batches(steps)
			cfg := Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9, Backend: oneKernel{mu: new(sync.Mutex)}}
			run := func(n int) float64 {
				w := f.bench()
				return allocBytes(func() { RunPipelined(w, batches[:n], cfg) })
			}
			sizing := run(1) // the arenas this plan borrows now hold its shapes
			perStep := (run(steps) - run(1)) / (steps - 1)
			t.Logf("%s %s: sizing run %.0f B, steady-state step %.0f B", f.name, name, sizing, perStep)
			if perStep > bound[f.name] {
				t.Errorf("%s %s: a steady-state step allocates %.0f B (bound %.0f B)",
					f.name, name, perStep, bound[f.name])
			}
		}
	}
}

// TestArenasSurviveCollections: a finished run's arenas are there for the
// next run however many garbage collections fall between the two — a
// bare sync.Pool loses them to two, and the next run sizes them again.
func TestArenasSurviveCollections(t *testing.T) {
	const steps = 4
	for _, f := range families() {
		batches := f.batches(steps)
		cfg := Config{Plan: planHybrid, DPU: true, LR: 0.05, Momentum: 0.9, Backend: oneKernel{mu: new(sync.Mutex)}}
		run := func() float64 {
			w := f.bench()
			return allocBytes(func() { RunPipelined(w, batches, cfg) })
		}
		collect()
		run()
		warm := run()
		collect()
		again := run()
		t.Logf("%s: a warm run %.0f B, after three collections %.0f B", f.name, warm, again)
		// Dropped arenas cost 3-10 MB; the pack cache's per-P front, which
		// collections do empty, is re-made in a few KB.
		if again > warm+64<<10 {
			t.Errorf("%s: the run after three collections allocates %.0f B, the one before them %.0f B: arenas were dropped",
				f.name, again, warm)
		}
	}
}
