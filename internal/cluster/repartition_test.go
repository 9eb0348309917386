package cluster

import (
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pipebd/internal/cluster/ledger"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
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
			s := runSpec{plan: c.plan, dpu: true, steps: 12, batch: 4}
			net := transport.NewLoopback()
			addrs := startWorkersMixed(t, net, costedWorkers(net, c.rates...))
			counters := obs.NewMetrics()
			logf, logs := captureLog()
			res, w, err := s.run(net, addrs, repartitionConfig(s, c.topo, counters, logf))
			if err != nil {
				t.Fatalf("%s straggler run: %v\nlog:\n%s", c.name, err, logs())
			}
			wantRepartitions(t, counters, logs, c.want)
			s.check(t, res, w)
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

// repartitionConfig is s's Config with the repartitioner armed.
func repartitionConfig(s runSpec, topology string, counters *obs.Metrics, logf func(string, ...any)) Config {
	cfg := s.config()
	cfg.Topology, cfg.Repartition, cfg.Metrics, cfg.Logf = topology, true, counters, logf
	return cfg
}

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
	s := runSpec{plan: hybridPlan(), dpu: true, steps: 8, batch: 4}
	net := transport.NewLoopback()
	addrs := startWorkersMixed(t, net, costedWorkers(net, 4, 1, 1))
	counters := obs.NewMetrics()
	logf, logs := captureLog()
	res, w, err := s.run(net, addrs, repartitionConfig(s, "ring", counters, logf))
	if err != nil {
		t.Fatalf("hybrid run: %v", err)
	}
	wantRepartitions(t, counters, logs)
	s.check(t, res, w)
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
	s := runSpec{plan: lopsidedPlan(), dpu: true, steps: 6, batch: 4}
	inner := transport.NewLoopback()
	// Every peer activation on every worker-to-worker link stalls: a
	// persistently slow interconnect rather than a slow device. A link's
	// dialer is its downstream end, which receives the activations.
	delay := transport.NewChaos(inner, transport.Fault{
		Trigger: transport.Trigger{Conn: transport.AnyConn, Op: transport.OpRecv,
			Kind: wire.KindOutput, Step: transport.AnyStep, Count: 1},
		Action: transport.ActDelay, Delay: 3 * time.Millisecond, Repeat: true,
	})
	addrs := startWorkersMixed(t, inner, costedWorkers(delay, 1, 1, 1))
	counters := obs.NewMetrics()
	logf, logs := captureLog()
	res, w, err := s.run(inner, addrs, repartitionConfig(s, "ring", counters, logf))
	if err != nil {
		t.Fatalf("peer-delay run: %v", err)
	}
	allFired(t, delay)
	wantRepartitions(t, counters, logs)
	s.check(t, res, w)
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

// crashAfterRepartitionRun is the crashed run both kill-and-resume tests
// resume: a durable ring run of the lopsided plan sheds its straggler's
// block and then loses its coordinator, failing with the injected fault.
// It returns the run's spec, network, ledger directory and log.
func crashAfterRepartitionRun(t *testing.T) (runSpec, transport.Network, string, func() string) {
	t.Helper()
	s := runSpec{plan: lopsidedPlan(), dpu: true, steps: 12, batch: 4}
	inner := transport.NewLoopback()
	addrs := startWorkersMixed(t, inner, costedWorkers(inner, 4, 1, 1))
	dir := filepath.Join(t.TempDir(), "ledger")
	counters := obs.NewMetrics()
	logf, logs := captureLog()
	cfg := repartitionConfig(s, "ring", counters, logf)
	cfg.LedgerDir = dir
	crash := newCrashAfterRepartition(inner, counters)
	_, _, err := s.run(crash, addrs, cfg)
	wantRepartitions(t, counters, logs, shedLopsided)
	if !errors.Is(err, transport.ErrChaos) {
		t.Fatalf("the rigged run got %v, want the injected coordinator crash\nlog:\n%s", err, logs())
	}
	allFired(t, crash.chaos)
	return s, inner, dir, logs
}

// TestRepartitionCoordinatorKillResume crosses the two recovery planes:
// a durable ring run repartitions away from a straggler mid-run, then
// the coordinator is killed under the new placement, and ResumeRun must restore
// across the plan-generation boundary — replaying the first generation's
// records under the original plan, remapping the carry onto the recorded
// re-plan, and finishing bit-identically under the new placement.
func TestRepartitionCoordinatorKillResume(t *testing.T) {
	leakCheck(t)
	s, inner, dir, logs := crashAfterRepartitionRun(t)
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
	s.check(t, res, w2)
}

// TestRepartitionCompactedLedgerResume extends the compaction acceptance
// to plan generations: the same crashed repartitioned run as above, but
// the ledger is compacted before the resume. The compacted log must hold
// one checkpoint per generation with the repartition records between
// them, and the resume across the generation boundary must still finish
// bit-identically to the fault-free in-process pipeline.
func TestRepartitionCompactedLedgerResume(t *testing.T) {
	leakCheck(t)
	s, inner, dir, _ := crashAfterRepartitionRun(t)

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
	s.check(t, res, w2)
}
