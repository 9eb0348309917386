// Package bench is the repository's single registry of compute
// benchmarks: kernel sweeps (the GEMM family, the fused conv GEMMs, and
// the skinny batched attention GEMMs), layer-level conv and attention
// forward/backward, and the pipelined engine step for both the conv and
// transformer workloads. Both
// the root benchmark harness (bench_test.go via go test -bench) and
// cmd/pipebd-bench (the JSON baseline writer) consume these definitions,
// so a benchmark exists exactly once and the two entry points can never
// drift apart.
//
// Backends are constructed per call: the parallel backend gets a
// dedicated pool sized by the GOMAXPROCS in effect at construction, so a
// harness that sweeps GOMAXPROCS values (pipebd-bench -procs) measures
// pools of the right width instead of a stale shared pool.
package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"pipebd/internal/cluster"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/nn"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
	"pipebd/internal/sim"
	"pipebd/internal/tensor"
)

// Case is one benchmark: Run executes the measured operation b.N times
// (using the timer controls where per-iteration setup must be excluded).
// Bytes, when non-zero, is the per-operation data volume for throughput
// reporting (the GEMM convention: 2·m·k·n·4); harnesses apply it via
// b.SetBytes before calling Run.
type Case struct {
	Name    string
	Backend string
	Bytes   int64
	Run     func(b *testing.B)
}

// parallelPools caches one parallel backend per pool width: Pool workers
// live for the life of the process (there is no Stop), so constructing a
// fresh backend per registry call would leak a pool per call. One cached
// pool per distinct GOMAXPROCS value bounds the goroutine count no
// matter how often the registry or a -procs sweep re-enumerates cases.
var (
	parallelMu    sync.Mutex
	parallelPools = map[int]*tensor.Parallel{}
)

func backends() []tensor.Backend {
	procs := runtime.GOMAXPROCS(0)
	parallelMu.Lock()
	defer parallelMu.Unlock()
	p, ok := parallelPools[procs]
	if !ok {
		p = tensor.NewParallel(procs)
		parallelPools[procs] = p
	}
	return []tensor.Backend{tensor.Serial{}, p}
}

// Kernel returns the GEMM-family kernel sweep: square MatMul at several
// sizes plus the transposed variants that dominate Linear and Conv2d
// backward passes, per backend.
func Kernel(quick bool) []Case {
	matmulSizes := []int{128, 256, 512}
	taSize, tbSize := 256, 256
	if quick {
		matmulSizes = []int{32}
		taSize, tbSize = 32, 32
	}
	var cases []Case
	rng := rand.New(rand.NewSource(1))
	for _, size := range matmulSizes {
		x := tensor.Rand(rng, -1, 1, size, size)
		y := tensor.Rand(rng, -1, 1, size, size)
		dst := tensor.New(size, size)
		for _, be := range backends() {
			be := be
			cases = append(cases, Case{
				Name:    fmt.Sprintf("MatMul/%dx%dx%d", size, size, size),
				Backend: be.Name(),
				Bytes:   int64(2 * size * size * size * 4),
				Run: func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						be.MatMulInto(dst, x, y)
					}
				},
			})
		}
	}
	ta := tensor.Rand(rng, -1, 1, taSize, taSize)
	tb := tensor.Rand(rng, -1, 1, taSize, taSize)
	tdst := tensor.New(taSize, taSize)
	for _, be := range backends() {
		be := be
		cases = append(cases, Case{
			Name:    fmt.Sprintf("MatMulTA/%dx%dx%d", taSize, taSize, taSize),
			Backend: be.Name(),
			Bytes:   int64(2 * taSize * taSize * taSize * 4),
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					be.MatMulTAInto(tdst, ta, tb)
				}
			},
		})
		cases = append(cases, Case{
			Name:    fmt.Sprintf("MatMulTB/%dx%dx%d", tbSize, tbSize, tbSize),
			Backend: be.Name(),
			Bytes:   int64(2 * tbSize * tbSize * tbSize * 4),
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					be.MatMulTBInto(tdst, ta, tb)
				}
			},
		})
	}
	imN, imC, imHW := 8, 32, 28
	if quick {
		imN, imC, imHW = 2, 4, 8
	}
	ix := tensor.Rand(rand.New(rand.NewSource(3)), -1, 1, imN, imC, imHW, imHW)
	iout := tensor.New(imC*3*3, imN*imHW*imHW)
	for _, be := range backends() {
		be := be
		cases = append(cases, Case{
			Name:    fmt.Sprintf("Im2Col/%dx%dx%dx%d", imN, imC, imHW, imHW),
			Backend: be.Name(),
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					be.Im2ColInto(iout, ix, 3, 3, 1, 1)
				}
			},
		})
	}
	return cases
}

// Conv returns the layer-level convolution benches: a conv3x3 forward
// (fused im2col GEMM + bias) and a full forward+backward training step,
// per backend, plus the training step of the two other layers of the
// depthwise-separable student — the depthwise conv3x3 and the ReLU — at
// the benchmark's conv_inproc geometry. Those two run the same code on
// every backend, so they are listed once, under "serial".
func Conv(quick bool) []Case {
	convBatch, convC, convHW := 8, 16, 28
	dwBatch, dwC, dwHW := 16, 16, 16
	if quick {
		convBatch, convC, convHW = 2, 4, 8
		dwBatch, dwC, dwHW = 2, 4, 8
	}
	dw := nn.NewDWConv2d(rand.New(rand.NewSource(5)), dwC, 3, 1, 1, false)
	relu := nn.NewReLU()
	dwX := tensor.Rand(rand.New(rand.NewSource(6)), -1, 1, dwBatch, dwC, dwHW, dwHW)
	dwGrad := tensor.Rand(rand.New(rand.NewSource(7)), -1, 1, dwBatch, dwC, dwHW, dwHW)
	dwShape := fmt.Sprintf("%dx%dx%dx%d", dwBatch, dwC, dwHW, dwHW)
	trainStep := func(l nn.Layer) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.Forward(dwX, true)
				l.Backward(dwGrad)
			}
		}
	}
	cases := []Case{
		{Name: "DWConvTrainStep/" + dwShape, Backend: "serial", Run: trainStep(dw)},
		{Name: "ReLUTrainStep/" + dwShape, Backend: "serial", Run: trainStep(relu)},
	}
	for _, be := range backends() {
		be := be
		conv := nn.NewConv2d(rand.New(rand.NewSource(2)), convC, convC, 3, 1, 1, true)
		conv.SetBackend(be)
		x := tensor.Rand(rand.New(rand.NewSource(3)), -1, 1, convBatch, convC, convHW, convHW)
		grad := tensor.Rand(rand.New(rand.NewSource(4)), -1, 1, convBatch, convC, convHW, convHW)
		cases = append(cases, Case{
			Name:    fmt.Sprintf("ConvForward/%dx%dx%dx%d", convBatch, convC, convHW, convHW),
			Backend: be.Name(),
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					conv.Forward(x, false)
				}
			},
		})
		cases = append(cases, Case{
			Name:    fmt.Sprintf("ConvTrainStep/%dx%dx%dx%d", convBatch, convC, convHW, convHW),
			Backend: be.Name(),
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					conv.Forward(x, true)
					conv.Backward(grad)
				}
			},
		})
	}
	return cases
}

// Pipeline returns the engine-level bench: one full hybrid-plan
// pipelined training pass over the tiny workbench, per backend.
func Pipeline(quick bool) []Case {
	stepBatches, stepBatch := 4, 16
	if quick {
		stepBatches, stepBatch = 2, 8
	}
	tiny := distill.DefaultTinyConfig()
	data := dataset.NewRandom(rand.New(rand.NewSource(4)), stepBatches*stepBatch, 3, tiny.Height, tiny.Width, 4)
	batches := data.Batches(stepBatch)
	plan := sched.Plan{Name: "hybrid", Groups: []sched.Group{
		{Devices: []int{0, 1}, Blocks: []int{0, 1}},
		{Devices: []int{2}, Blocks: []int{2, 3}},
	}}
	var cases []Case
	for _, be := range backends() {
		be := be
		cases = append(cases, Case{
			Name:    fmt.Sprintf("PipelineStep/hybrid/%dsteps-batch%d", stepBatches, stepBatch),
			Backend: be.Name(),
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					// Workbench construction is setup, not the measured
					// step (the PR2–PR4 baselines excluded it too).
					b.StopTimer()
					w := distill.NewTinyWorkbench(tiny)
					b.StartTimer()
					engine.RunPipelined(w, batches, engine.Config{Plan: plan, DPU: true,
						LR: 0.05, Momentum: 0.9, Backend: be})
				}
			},
		})
	}
	return cases
}

// Transformer returns the transformer-workload benches. The batched
// attention kernels are the skinny shapes the tentpole introduced —
// g = batch·heads instances of m ≈ seq-len rows each, which the old
// per-instance m≥8 dispatch heuristic permanently stranded on the
// reference path — plus the full multi-head-attention training step and
// the blockwise transformer pipeline step over token batches.
func Transformer(quick bool) []Case {
	g, l, dh := 64, 16, 16
	attnBatch, dim, heads := 16, 64, 4
	if quick {
		g, l, dh = 8, 6, 4
		attnBatch, dim, heads = 2, 8, 2
	}
	rng := rand.New(rand.NewSource(6))
	q := tensor.Rand(rng, -1, 1, g, l, dh)
	k := tensor.Rand(rng, -1, 1, g, l, dh)
	scores := tensor.New(g, l, l)
	probs := tensor.Rand(rng, 0, 1, g, l, l)
	v := tensor.Rand(rng, -1, 1, g, l, dh)
	ctx := tensor.New(g, l, dh)
	var cases []Case
	for _, be := range backends() {
		be := be
		cases = append(cases, Case{
			Name:    fmt.Sprintf("AttnScoresBatch/%dx%dx%d", g, l, dh),
			Backend: be.Name(),
			Bytes:   int64(2 * g * l * l * dh * 4),
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					be.MatMulTBBatchInto(scores, q, k)
				}
			},
		})
		cases = append(cases, Case{
			Name:    fmt.Sprintf("AttnContextBatch/%dx%dx%dx%d", g, l, l, dh),
			Backend: be.Name(),
			Bytes:   int64(2 * g * l * l * dh * 4),
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					be.MatMulBatchInto(ctx, probs, v)
				}
			},
		})
		mha := nn.NewMultiHeadAttention(rand.New(rand.NewSource(7)), dim, heads)
		nn.ApplyBackend(mha, be)
		x := tensor.Rand(rand.New(rand.NewSource(8)), -1, 1, attnBatch, l, dim)
		grad := tensor.Rand(rand.New(rand.NewSource(9)), -1, 1, attnBatch, l, dim)
		cases = append(cases, Case{
			Name:    fmt.Sprintf("AttentionTrainStep/%dx%dx%d-heads%d", attnBatch, l, dim, heads),
			Backend: be.Name(),
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mha.Forward(x, true)
					mha.Backward(grad)
				}
			},
		})
	}
	tcfg := distill.DefaultTransformerConfig()
	steps, stepBatch := 4, 16
	if quick {
		steps, stepBatch = 2, 8
	}
	tokens := dataset.NewTokens(rand.New(rand.NewSource(10)), steps*stepBatch,
		tcfg.SeqLen, tcfg.Vocab, tcfg.Classes)
	batches := tokens.Batches(stepBatch)
	plan := sched.Plan{Name: "hybrid", Groups: []sched.Group{
		{Devices: []int{0, 1}, Blocks: []int{0, 1}},
		{Devices: []int{2}, Blocks: []int{2, 3}},
	}}
	for _, be := range backends() {
		be := be
		cases = append(cases, Case{
			Name:    fmt.Sprintf("TransformerPipelineStep/hybrid/%dsteps-batch%d", steps, stepBatch),
			Backend: be.Name(),
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					w := distill.NewTransformerWorkbench(tcfg)
					b.StartTimer()
					engine.RunPipelined(w, batches, engine.Config{Plan: plan, DPU: true,
						LR: 0.05, Momentum: 0.9, Backend: be})
				}
			},
		})
	}
	return cases
}

// Recovery returns the fault-recovery latency pair: the same tiny ring
// run over a loopback cluster with one identical mid-run link break —
// once as a transient flap absorbed by the resumable layer (reconnect
// plus frame replay, no restart), once as a kill that forces a global
// restart from the cut (every device rewound and replayed). The delta
// between the two is the wall-clock the absorption tier saves per fault.
func Recovery(quick bool) []Case {
	steps, batch := 4, 8
	if quick {
		steps, batch = 3, 4
	}
	tiny := distill.DefaultTinyConfig()
	data := dataset.NewRandom(rand.New(rand.NewSource(5)), steps*batch, 3, tiny.Height, tiny.Width, 4)
	batches := data.Batches(batch)
	plan := sched.Plan{Name: "tr", Groups: []sched.Group{
		{Devices: []int{0}, Blocks: []int{0, 1}},
		{Devices: []int{1}, Blocks: []int{2, 3}},
	}}
	mk := func(name string, action transport.Action, retry wire.RetrySpec, maxRestarts int) Case {
		return Case{
			Name:    fmt.Sprintf("RecoveryLatency/%s/%dsteps-batch%d", name, steps, batch),
			Backend: "serial",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					inner := transport.NewLoopback()
					chaos := transport.NewChaos(inner, transport.Fault{
						Trigger: transport.Trigger{Conn: transport.AnyConn, Op: transport.OpRecv,
							Kind: wire.KindPeerInput, Step: 1, Count: 1},
						Action: action,
					})
					workers := make([]*cluster.Worker, 2)
					addrs := make([]string, 2)
					for j := range workers {
						lis, err := inner.Listen("")
						if err != nil {
							b.Fatalf("listen: %v", err)
						}
						workers[j] = cluster.NewWorker(lis, cluster.WorkerConfig{
							Sessions: 1, Rejoin: true, Dial: chaos})
						addrs[j] = workers[j].Addr()
						go workers[j].Serve()
					}
					w := distill.NewTinyWorkbench(tiny)
					b.StartTimer()
					_, err := cluster.Run(inner, addrs, w, batches, cluster.Config{
						Plan: plan, DPU: true, LR: 0.05, Momentum: 0.9,
						Topology: "ring", Spec: cluster.TinySpec(tiny),
						Retry: retry, MaxRestarts: maxRestarts,
						JoinTimeout: 10 * time.Second,
					})
					b.StopTimer()
					if err != nil {
						b.Fatalf("ring run with injected %v failed: %v", action, err)
					}
					for _, wk := range workers {
						wk.Close()
					}
					b.StartTimer()
				}
			},
		}
	}
	return []Case{
		// A short backoff keeps the absorb case honest: the measured time
		// is reconnect + replay, not a sleeping retry loop.
		mk("absorb", transport.ActFlap,
			wire.RetrySpec{BackoffMillis: 1, BudgetMillis: 2000, AckEvery: 2}, 0),
		mk("global-cut", transport.ActKill, wire.RetrySpec{}, 1),
	}
}

// Trace returns the observability overhead benches: the Begin/End span
// pair that PR 7 threads through the engine and cluster hot paths. The
// disabled case is the every-run cost (tracing off by default) and must
// stay near-free — one nil check plus one atomic load, no allocation, no
// clock read; the enabled case bounds what opting into -trace-out adds,
// including the periodic drain a step-boundary flush performs.
func Trace() []Case {
	mk := func(name string, enabled bool) Case {
		tracer := obs.NewTracer(enabled)
		track := tracer.NewTrack("dev0")
		return Case{
			Name:    name,
			Backend: "n/a",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					track.Begin(sim.CatStudentFwd, "student_fwd").End()
					if i&1023 == 1023 {
						track.Drain()
					}
				}
				track.Drain()
			},
		}
	}
	return []Case{
		mk("TraceOverhead/disabled", false),
		mk("TraceOverhead/enabled", true),
	}
}

// All returns every registry benchmark: kernels, conv layers, the
// transformer workload, pipeline, trace overhead.
func All(quick bool) []Case {
	var cases []Case
	cases = append(cases, Kernel(quick)...)
	cases = append(cases, Conv(quick)...)
	cases = append(cases, Transformer(quick)...)
	cases = append(cases, Pipeline(quick)...)
	cases = append(cases, Recovery(quick)...)
	cases = append(cases, Trace()...)
	return cases
}
