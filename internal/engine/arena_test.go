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
// the producer runs the full relay depth ahead, recycling its arena while
// earlier boundary activations still sit in the channel, and the consumer
// hands each buffer back while the producer waits to fill one. Under
// poison a handed-back buffer is NaN until refilled, so a consumer that
// read one it had given back — or a producer that relayed its own arena's
// memory — poisons the run; tr2 relays an unsplit producer's copy, hybrid
// a split producer's assembly, split-consumer an unsplit producer's copy
// to two members, of which only rank 0 hands buffers back. The run's
// spans show the producer did get that far ahead (relayLead), or the
// throttle slowed nothing and the buffers went untested, and the boundary
// never made more than relayDepth+2 buffers.
func TestBoundaryActivationOutlivesProducerStep(t *testing.T) {
	batches := tinyBatches(t, 8, 8)
	for _, c := range []struct {
		name string
		p    sched.Plan
	}{{"tr2", planTR2}, {"hybrid", planHybrid},
		{"split-consumer", plan(g([]int{0}, []int{0, 1}), g([]int{1, 2}, []int{2, 3}))}} {
		// A split group averages shard gradients in its own order: its
		// reference is the same plan, unthrottled and unpoisoned.
		ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
		cfg := Config{Plan: c.p, DPU: true, LR: 0.05, Momentum: 0.9}
		want := RunPipelined(ref, batches, cfg)
		if c.name == "tr2" {
			ref = distill.NewTinyWorkbench(distill.DefaultTinyConfig())
			want = RunSequential(ref, batches, 0.05, 0.9)
		}

		w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
		slow := tensor.NewThrottled(tensor.Serial{}, 50)
		for _, p := range w.Pairs[2:] {
			nn.ApplyBackend(p.Teacher, slow)
			nn.ApplyBackend(p.Student, slow)
		}
		cfg.Trace = obs.NewTracer(true)
		made := 0
		relayMade = func(n int) { made = n }
		poisonFreed = true
		got := RunPipelined(w, batches, cfg)
		poisonFreed, relayMade = false, nil
		if !lossesEqual(want, got) || !paramsEqual(t, ref, w, true, 0) {
			t.Fatalf("%s: a slowed consumer read a boundary activation from recycled memory", c.name)
		}
		tracks := cfg.Trace.Tracks()
		consumer := c.p.Groups[1].Devices[0]
		if lead := relayLead(tracks[0].Drain(), tracks[consumer].Drain()); lead < relayDepth {
			t.Fatalf("%s: the producer ran at most %d step(s) ahead of its consumer, never the relay depth of %d", c.name, lead, relayDepth)
		}
		t.Logf("%s: the boundary made %d buffers", c.name, made)
		if made > relayDepth+2 {
			t.Errorf("%s: the boundary made %d buffers, over relayDepth+2 = %d", c.name, made, relayDepth+2)
		}
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
// only what cannot come from them — Reshape headers, parameter lists,
// loss rows; the GEMM drivers allocate nothing, and a relayed activation
// travels in one of its boundary's buffers. The cost of one step is the
// difference between a 17-step and a 1-step run of the same plan, which
// share their set-up. A full-length run sizes the arenas first: a
// boundary makes its relayDepth+2 buffers only once the producer runs
// that far ahead, which a 1-step run never does (a measured run that
// still makes one costs each step 16 KB conv, 8 KB transformer).
//
// The bounds are per steady-state step, all devices together. What a
// step allocates measures 0.05-0.5 KB for either model (the transformer's
// attention and feed-forward layers keep their reshaped views), every
// run; the 35 KB and 36 KB above that are what a leak may cost a
// step and pass. One activation that stopped coming from an arena or a
// relay buffer (262 KB conv, 131 KB transformer) may not. The old
// relative check, a steady step under a twentieth of a cold step 0,
// needed the caches emptied to have a cold step and was never the tighter
// of the two (a cold step 0 is 9-26 MB).
func TestSteadyStateStepAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	collect()
	const steps = 17
	bound := map[string]float64{"conv": 38e3, "transformer": 49e3}
	for _, f := range families() {
		for name, p := range map[string]sched.Plan{"tr2": planTR2, "hybrid": planHybrid} {
			batches := f.batches(steps)
			cfg := Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9, Backend: oneKernel{mu: new(sync.Mutex)}}
			run := func(n int) float64 {
				w := f.bench()
				return allocBytes(func() { RunPipelined(w, batches[:n], cfg) })
			}
			sizing := run(steps) // the arenas this plan borrows now hold its shapes
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

// TestSteadyStateRunAllocs: a warm run allocates the state that is the
// run's own — the replicas: every parameter's value as the build draws it,
// and each student block's three slabs (values, gradients, momentum) — and
// a stated slack besides; every activation, backward cache, relay buffer
// and teacher warm-up comes from an arena an earlier run sized. The conv
// hybrid plan builds a replica (device 1's, whose build warms its
// teachers up) and relays through a split producer's assembly; the
// transformer tr2 plan caches GELU's input and tanh on every student
// block.
//
// The slack is what the rest measures, 57-59 KB (conv) and 146 KB
// (transformer), with 70 and 110 KB of margin: each step's remainder (see
// TestSteadyStateStepAllocs) 17 times, loss rows, the stages, LayerNorm's
// per-row statistics. A teacher warm-up off its arena costs 2.7 MB,
// GELU's caches off theirs 1 MB, a relay copy per step 2.2-4.5 MB. How
// far a producer runs ahead is the scheduler's, so a warm run may still
// make a relay buffer the first one did not need: the bound counts those
// from what the boundary reports.
func TestSteadyStateRunAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer func() { relayMade = nil }()
	collect()
	const steps = 17
	slack := map[string]float64{"conv": 128e3, "transformer": 256e3}
	fams := families()
	for _, c := range []struct {
		f    family
		name string
		p    sched.Plan
	}{{fams[0], "hybrid", planHybrid}, {fams[1], "tr2", planTR2}} {
		batches := c.f.batches(steps)
		cfg := Config{Plan: c.p, DPU: true, LR: 0.05, Momentum: 0.9, Backend: oneKernel{mu: new(sync.Mutex)}}
		made := 0
		relayMade = func(n int) { made = n }
		run := func() float64 {
			w := c.f.bench()
			return allocBytes(func() { RunPipelined(w, batches, cfg) })
		}
		run()
		sized := made
		got := run()

		w := c.f.bench()
		var replica, slabs, replicas float64
		for _, p := range w.Pairs {
			replica += paramBytes(p.Teacher.Params()) + paramBytes(p.Student.Params())
			slabs += 3 * paramBytes(p.Student.Params())
		}
		for _, g := range c.p.Groups {
			replicas += float64(g.Split() - 1) // one per later rank: a device is in one group
		}
		x := batches[0].X
		for _, b := range c.p.Groups[0].Blocks {
			x = w.Pairs[b].Teacher.Forward(x, false)
		}
		relay := float64(max(0, made-sized)) * 4 * float64(x.Numel())
		bound := replicas*(replica+slabs) + relay + slack[c.f.name]
		t.Logf("%s %s: a warm run %.0f B, bound %.0f B: replicas' values %.0f B, their slabs %.0f B, relay buffers beyond the first run's %.0f B",
			c.f.name, c.name, got, bound, replicas*replica, replicas*slabs, relay)
		if got > bound {
			t.Errorf("%s %s: a warm run allocates %.0f B, over its own state and slack (%.0f B)", c.f.name, c.name, got, bound)
		}
	}
}

// paramBytes is the size of params' values.
func paramBytes(params []*nn.Param) float64 {
	var n int
	for _, p := range params {
		n += p.Value.Numel()
	}
	return 4 * float64(n)
}
