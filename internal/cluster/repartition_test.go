package cluster

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipebd/internal/cluster/ledger"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

// lopsidedPlan is the repartition tests' starting placement: an unsplit
// three-device plan whose front device carries half the blocks. Slow
// the worker hosting device 0 and the measured re-plan sheds a block off
// it.
func lopsidedPlan() sched.Plan {
	return plan("lopsided", g([]int{0}, []int{0, 1}), g([]int{1}, []int{2}), g([]int{2}, []int{3}))
}

// startWorkersMixed is startWorkers with one config per worker, for
// heterogeneous clusters (e.g. one throttled straggler among fast
// siblings).
func startWorkersMixed(t *testing.T, net transport.Network, cfgs []WorkerConfig) []string {
	t.Helper()
	addrs := make([]string, len(cfgs))
	workers := make([]*Worker, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		lis, err := net.Listen(listenAddr(net))
		if err != nil {
			t.Fatalf("worker %d listen: %v", i, err)
		}
		w := NewWorker(lis, cfg)
		addrs[i] = w.Addr()
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Serve(); err != nil {
				t.Errorf("worker serve: %v", err)
			}
		}()
	}
	t.Cleanup(func() {
		for _, w := range workers {
			w.Close()
		}
		wg.Wait()
	})
	return addrs
}

// costed is the repartition suites' compute straggler: it passes every
// kernel to the real backend untouched, so it is bit-identical by
// construction, and then advances its own clock by the kernel's
// multiply-adds (GEMM and conv: output elements × inner dimension) or
// elements (elementwise, im2col, col2im) times rate. As an obs.Clock it
// clocks the spans of the devices its worker hosts, so a block's
// measured cost is a pure function of its shapes and its worker's rate.
type costed struct {
	tensor.Backend
	rate int64
	ns   *atomic.Int64
}

func (c costed) Now() int64 { return c.ns.Load() }

func (c costed) charge(work int) { c.ns.Add(int64(work) * c.rate) }

func (c costed) MatMulInto(out, a, b *tensor.Tensor) {
	c.Backend.MatMulInto(out, a, b)
	c.charge(out.Numel() * a.Dim(1))
}

func (c costed) MatMulTAInto(out, a, b *tensor.Tensor) {
	c.Backend.MatMulTAInto(out, a, b)
	c.charge(out.Numel() * a.Dim(0))
}

func (c costed) MatMulTBInto(out, a, b *tensor.Tensor) {
	c.Backend.MatMulTBInto(out, a, b)
	c.charge(out.Numel() * a.Dim(1))
}

func (c costed) MatMulBatchInto(out, a, b *tensor.Tensor) {
	c.Backend.MatMulBatchInto(out, a, b)
	c.charge(out.Numel() * a.Dim(2))
}

func (c costed) MatMulTABatchInto(out, a, b *tensor.Tensor) {
	c.Backend.MatMulTABatchInto(out, a, b)
	c.charge(out.Numel() * a.Dim(1))
}

func (c costed) MatMulTBBatchInto(out, a, b *tensor.Tensor) {
	c.Backend.MatMulTBBatchInto(out, a, b)
	c.charge(out.Numel() * a.Dim(2))
}

func (c costed) Add(dst, a, b *tensor.Tensor) { c.Backend.Add(dst, a, b); c.charge(dst.Numel()) }

func (c costed) Sub(dst, a, b *tensor.Tensor) { c.Backend.Sub(dst, a, b); c.charge(dst.Numel()) }

func (c costed) Mul(dst, a, b *tensor.Tensor) { c.Backend.Mul(dst, a, b); c.charge(dst.Numel()) }

func (c costed) Scale(dst, a *tensor.Tensor, s float32) {
	c.Backend.Scale(dst, a, s)
	c.charge(dst.Numel())
}

func (c costed) Axpy(dst *tensor.Tensor, alpha float32, src *tensor.Tensor) {
	c.Backend.Axpy(dst, alpha, src)
	c.charge(dst.Numel())
}

func (c costed) Im2ColInto(out, x *tensor.Tensor, kh, kw, stride, pad int) {
	c.Backend.Im2ColInto(out, x, kh, kw, stride, pad)
	c.charge(out.Numel())
}

func (c costed) Col2ImInto(out, cols *tensor.Tensor, kh, kw, stride, pad int) {
	c.Backend.Col2ImInto(out, cols, kh, kw, stride, pad)
	c.charge(cols.Numel())
}

func (c costed) ConvForwardInto(out, w, x *tensor.Tensor, kh, kw, stride, pad int) {
	c.Backend.ConvForwardInto(out, w, x, kh, kw, stride, pad)
	c.charge(out.Numel() * w.Dim(1))
}

func (c costed) ConvGradWeightInto(out, grad, x *tensor.Tensor, kh, kw, stride, pad int) {
	c.Backend.ConvGradWeightInto(out, grad, x, kh, kw, stride, pad)
	c.charge(out.Numel() * grad.Dim(1))
}

// costedWorkers is one one-session rejoin-capable worker per rate, each
// on its own costed backend: rates[i] is worker i's virtual nanoseconds
// per multiply-add.
func costedWorkers(dial transport.Network, rates ...int64) []WorkerConfig {
	cfgs := make([]WorkerConfig, len(rates))
	for i, rate := range rates {
		cfgs[i] = WorkerConfig{Sessions: 1, Rejoin: true, Dial: dial,
			Backend: costed{Backend: tensor.Default(), rate: rate, ns: new(atomic.Int64)}}
	}
	return cfgs
}

// TestRepartitionShedsStraggler is the repartitioner's equivalence test: a
// cluster one worker of which computes 4x slower runs a plan that
// overloads it, with the repartitioner armed. The controller must fire
// exactly once, with the decision the cost model gives, and the final
// loss trajectory and trained weights must stay bit-identical to the
// fault-free in-process pipeline under the original plan — repartitioning
// may only move wall-clock, never a float. Both data planes are covered:
// the ring (peer-to-peer) and the hub. The hybrid rows put the straggler
// behind a split group, whose members, shares and blocks the re-plan
// must leave alone.
func TestRepartitionShedsStraggler(t *testing.T) {
	leakCheck(t)
	hybrid := plan("hybrid4", g([]int{0, 1}, []int{0}), g([]int{2}, []int{1, 2}), g([]int{3}, []int{3}))
	for _, c := range []struct {
		name  string
		topo  string
		plan  sched.Plan
		rates []int64 // per worker; worker i hosts the device of rank i
		want  string
	}{
		{"ring", "ring", lopsidedPlan(), []int64{4, 1, 1}, shedLopsided},
		{"hub", "hub", lopsidedPlan(), []int64{4, 1, 1}, shedLopsided},
		{"hybrid-ring", "ring", hybrid, []int64{1, 1, 4, 1}, shedHybrid},
		{"hybrid-hub", "hub", hybrid, []int64{1, 1, 4, 1}, shedHybrid},
	} {
		t.Run(c.name, func(t *testing.T) {
			const steps, batch = 12, 4
			batches := tinyBatches(steps, batch)
			ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
			refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: c.plan, DPU: true, LR: 0.05, Momentum: 0.9})

			net := transport.NewLoopback()
			addrs := startWorkersMixed(t, net, costedWorkers(net, c.rates...))
			counters := obs.NewMetrics()
			logf, logs := captureLog()
			w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
			res, err := Run(net, addrs, w, batches, Config{
				Plan: c.plan, DPU: true, LR: 0.05, Momentum: 0.9,
				Topology: c.topo, Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(steps, batch),
				Repartition: true,
				Metrics:     counters, Logf: logf,
				JoinTimeout: 10 * time.Second,
			})
			if err != nil {
				t.Fatalf("%s straggler run: %v\nlog:\n%s", c.name, err, logs())
			}
			wantRepartitions(t, counters, logs, c.want)
			lossesBitIdentical(t, c.name+" straggler repartition", res, refRes)
			weightsBitIdentical(t, c.name+" straggler repartition", w, ref)
		})
	}
}

// The decisions the cost model gives. At rate 1 a tiny block at batch 4
// costs 112,164 ns (B1-B3; the teacher's 3x3 conv alone is 1536 outputs x
// 54 = 82,944 multiply-adds) and B0, on 3 input channels, half that. On
// the lopsided plan a 4x dev0 measures 4 x (56,082 + 112,164) = 672,984
// ns, and shedding B1, priced at its 4x cost of 448,656 ns, predicts a
// third better. On hybrid4 a 4x dev2 measures 4 x 2 x 112,164 = 897,312
// ns, and handing B2 to dev3 predicts 448,656 + 112,164 = 560,820 ns.
const (
	shedLopsided = "to dev0: B0 | dev1: B1 | dev2: B2-B3 (measured bottleneck 672.984µs, predicted 448.656µs, 33% better)"
	shedHybrid   = "to dev0-1: B0 (2-way DP) | dev2: B1 | dev3: B2-B3 (measured bottleneck 897.312µs, predicted 560.82µs, 38% better)"
)

// wantRepartitions asserts that the run repartitioned once per decision
// in want, each the log's text from the target plan through the predicted
// gain, and never otherwise.
func wantRepartitions(t *testing.T, counters *obs.Metrics, logs func() string, want ...string) {
	t.Helper()
	if n := counters.Counter("repartitions").Load(); n != int64(len(want)) {
		t.Fatalf("repartitioned %d time(s), want %d; log:\n%s", n, len(want), logs())
	}
	for _, w := range want {
		if !strings.Contains(logs(), w) {
			t.Fatalf("no repartition %s; log:\n%s", w, logs())
		}
	}
}

// TestRepartitionHybridPlanStaysPut: the CLI's hybrid plan — a split
// group, then one unsplit group — has nothing the re-plan may move, so an
// armed controller never fires, even with a straggler in the split group,
// and the run stays bit-identical.
func TestRepartitionHybridPlanStaysPut(t *testing.T) {
	leakCheck(t)
	const steps, batch = 8, 4
	batches := tinyBatches(steps, batch)
	p := hybridPlan()
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	net := transport.NewLoopback()
	addrs := startWorkersMixed(t, net, costedWorkers(net, 4, 1, 1))
	counters := obs.NewMetrics()
	logf, logs := captureLog()
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	res, err := Run(net, addrs, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
		Topology: "ring", Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(steps, batch),
		Repartition: true,
		Metrics:     counters, Logf: logf,
		JoinTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("hybrid run: %v", err)
	}
	wantRepartitions(t, counters, logs)
	lossesBitIdentical(t, "hybrid under repartitioner", res, refRes)
	weightsBitIdentical(t, "hybrid under repartitioner", w, ref)
}

// TestRepartitionPersistentPeerDelayBitIdentical pins down the boundary
// of what repartitioning can fix: a persistent transport delay on a peer
// activation link (chaos Repeat fault) slows the run but lands in wait
// spans, not block compute, so the measured per-block costs of three
// equal workers stay what the plan already balances and the controller
// never fires — while the run, chaos and all, stays bit-identical with
// the machinery armed.
func TestRepartitionPersistentPeerDelayBitIdentical(t *testing.T) {
	leakCheck(t)
	const steps, batch = 6, 4
	batches := tinyBatches(steps, batch)
	p := lopsidedPlan()
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	inner := transport.NewLoopback()
	// Every peer activation send on every worker-to-worker link stalls:
	// a persistently slow interconnect rather than a slow device.
	delay := transport.NewChaos(inner, transport.Fault{
		Trigger: transport.Trigger{Conn: transport.AnyConn, Op: transport.OpSend,
			Kind: wire.KindOutput, Step: transport.AnyStep, Count: 1},
		Action: transport.ActDelay, Delay: 3 * time.Millisecond, Repeat: true,
	})
	addrs := startWorkersMixed(t, inner, costedWorkers(delay, 1, 1, 1))
	counters := obs.NewMetrics()
	logf, logs := captureLog()
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	res, err := Run(inner, addrs, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
		Topology: "ring", Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(steps, batch),
		Repartition: true,
		Metrics:     counters, Logf: logf,
		JoinTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("peer-delay run: %v", err)
	}
	wantRepartitions(t, counters, logs)
	lossesBitIdentical(t, "peer delay under repartitioner", res, refRes)
	weightsBitIdentical(t, "peer delay under repartitioner", w, ref)
}

// crashAfterRepartition is the coordinator network of the kill-and-resume
// tests: once the run has repartitioned, it kills the control connection
// that delivers the next loss row, simulating a coordinator crash under
// the new placement. The step the repartitioner fires after follows the
// order frames arrive in, so a kill keyed on a fixed step could instead
// land on a connection of the attempt the repartition superseded, and
// crash nothing.
type crashAfterRepartition struct {
	transport.Network
	chaos    *transport.Chaos
	counters *obs.Metrics
}

func newCrashAfterRepartition(inner transport.Network, counters *obs.Metrics) *crashAfterRepartition {
	return &crashAfterRepartition{Network: inner, counters: counters,
		chaos: transport.NewChaos(inner, transport.Fault{
			Trigger: transport.Trigger{Conn: transport.AnyConn, Op: transport.OpRecv,
				Kind: wire.KindLosses, Step: transport.AnyStep, Count: 1},
			Action: transport.ActKill,
		})}
}

func (n *crashAfterRepartition) Dial(addr string) (transport.Conn, error) {
	if n.counters.Counter("repartitions").Load() > 0 {
		return n.chaos.Dial(addr)
	}
	return n.Network.Dial(addr)
}

// TestRepartitionCoordinatorKillResume crosses the two recovery planes:
// a durable ring run repartitions away from a straggler mid-run, then
// the coordinator is killed under the new placement, and ResumeRun must restore
// across the plan-generation boundary — replaying the first generation's
// records under the original plan, remapping the carry onto the recorded
// re-plan, and finishing bit-identically under the new placement.
func TestRepartitionCoordinatorKillResume(t *testing.T) {
	leakCheck(t)
	const steps, batch = 12, 4
	batches := tinyBatches(steps, batch)
	p := lopsidedPlan()
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	inner := transport.NewLoopback()
	addrs := startWorkersMixed(t, inner, costedWorkers(inner, 4, 1, 1))
	dir := filepath.Join(t.TempDir(), "ledger")
	counters := obs.NewMetrics()
	logf, logs := captureLog()
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	_, err := Run(newCrashAfterRepartition(inner, counters), addrs, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
		Topology: "ring", Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(steps, batch),
		Repartition: true,
		LedgerDir:   dir,
		Metrics:     counters, Logf: logf,
		JoinTimeout: 10 * time.Second,
	})
	wantRepartitions(t, counters, logs, shedLopsided)
	if err == nil {
		t.Fatal("rigged run finished despite the injected coordinator crash")
	}
	if !errors.Is(err, transport.ErrChaos) {
		t.Fatalf("crash should surface the injected fault: %v\nlog:\n%s", err, logs())
	}
	// The crashed run must have recorded the cut: the ledger now spans
	// two plan generations.
	led, _, rep, err := ledger.Open(dir)
	if err != nil {
		t.Fatalf("reopening crashed ledger: %v", err)
	}
	led.Close()
	cuts := 0
	for _, rec := range rep.Records {
		if rec.Type == ledger.TypeRepartition {
			cuts++
		}
	}
	if cuts != 1 {
		t.Fatalf("crashed ledger holds %d repartition records, want 1; log:\n%s", cuts, logs())
	}

	rlogf, rlogs := captureLog()
	res, w2, err := ResumeRun(inner, dir, ResumeConfig{JoinTimeout: 10 * time.Second, Logf: rlogf})
	if err != nil {
		t.Fatalf("resume across repartition failed: %v\nlog:\n%s", err, rlogs())
	}
	if !strings.Contains(rlogs(), "plan generation(s)") {
		t.Fatalf("resume log missing the generation restore line:\n%s", rlogs())
	}
	lossesBitIdentical(t, "resume across repartition", res, refRes)
	weightsBitIdentical(t, "resume across repartition", w2, ref)
}

// TestRepartitionCompactedLedgerResume extends the compaction acceptance
// to plan generations: the same crashed repartitioned run as above, but
// the ledger is compacted before the resume. The compacted log must hold
// one checkpoint per generation with the repartition records between
// them, and the resume across the generation boundary must still finish
// bit-identically to the fault-free in-process pipeline.
func TestRepartitionCompactedLedgerResume(t *testing.T) {
	leakCheck(t)
	const steps, batch = 12, 4
	batches := tinyBatches(steps, batch)
	p := lopsidedPlan()
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	inner := transport.NewLoopback()
	addrs := startWorkersMixed(t, inner, costedWorkers(inner, 4, 1, 1))
	dir := filepath.Join(t.TempDir(), "ledger")
	counters := obs.NewMetrics()
	logf, logs := captureLog()
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	_, err := Run(newCrashAfterRepartition(inner, counters), addrs, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
		Topology: "ring", Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(steps, batch),
		Repartition: true,
		LedgerDir:   dir,
		Metrics:     counters, Logf: logf,
		JoinTimeout: 10 * time.Second,
	})
	wantRepartitions(t, counters, logs, shedLopsided)
	if err == nil {
		t.Fatal("rigged run finished despite the injected coordinator crash")
	}

	if err := ledger.Compact(dir); err != nil {
		t.Fatalf("compacting repartitioned ledger: %v", err)
	}
	led, _, rep, err := ledger.Open(dir)
	if err != nil {
		t.Fatalf("reopening compacted ledger: %v", err)
	}
	led.Close()
	// One checkpoint per plan generation, the repartition record between.
	if n := len(rep.Records); n != 3 {
		t.Fatalf("compacted ledger holds %d records, want checkpoint/repartition/checkpoint", n)
	}
	for i, rec := range rep.Records {
		want := ledger.TypeCheckpoint
		if i%2 == 1 {
			want = ledger.TypeRepartition
		}
		if rec.Type != want {
			t.Fatalf("compacted record %d is %v, want %v", i, rec.Type, want)
		}
	}

	res, w2, err := ResumeRun(inner, dir, ResumeConfig{JoinTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("resume from compacted repartitioned ledger failed: %v", err)
	}
	lossesBitIdentical(t, "compacted resume across repartition", res, refRes)
	weightsBitIdentical(t, "compacted resume across repartition", w2, ref)
}
