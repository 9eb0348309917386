package cluster

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sync"
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
// elements (elementwise, im2col, col2im) times rate. With probability
// pause a kernel call also stalls for costedPause, a draw keyed on the
// worker's seed and the bits of the kernel's output rather than on a
// stream: a step replayed after a cut draws the same stalls, so a whole
// run, cut included, replays from its seeds. As an obs.Clock it clocks
// the spans of the devices its worker hosts, so a block's measured cost
// is a pure function of its shapes, its worker's rate and seed, and the
// run's values.
type costed struct {
	tensor.Backend
	rate  int64
	ns    *atomic.Int64
	seed  uint64
	pause float64
}

// costedPause is what one stall costs: about two tiny blocks' work at
// rate 1.
const costedPause = 200 * time.Microsecond

func (c costed) Now() int64 { return c.ns.Load() }

// charge advances the clock by work at the worker's rate, plus a stall
// when out's draw falls under pause.
func (c costed) charge(work int, out *tensor.Tensor) {
	ns := int64(work) * c.rate
	if c.pause > 0 {
		h := c.seed ^ 0x9e3779b97f4a7c15
		for _, v := range out.Data() {
			h = (h ^ uint64(math.Float32bits(v))) * 0x100000001b3
		}
		h ^= h >> 29
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 32
		if float64(h>>11)/(1<<53) < c.pause {
			ns += int64(costedPause)
		}
	}
	c.ns.Add(ns)
}

func (c costed) MatMulInto(out, a, b *tensor.Tensor) {
	c.Backend.MatMulInto(out, a, b)
	c.charge(out.Numel()*a.Dim(1), out)
}

func (c costed) MatMulTAInto(out, a, b *tensor.Tensor) {
	c.Backend.MatMulTAInto(out, a, b)
	c.charge(out.Numel()*a.Dim(0), out)
}

func (c costed) MatMulTBInto(out, a, b *tensor.Tensor) {
	c.Backend.MatMulTBInto(out, a, b)
	c.charge(out.Numel()*a.Dim(1), out)
}

func (c costed) MatMulBatchInto(out, a, b *tensor.Tensor) {
	c.Backend.MatMulBatchInto(out, a, b)
	c.charge(out.Numel()*a.Dim(2), out)
}

func (c costed) MatMulTABatchInto(out, a, b *tensor.Tensor) {
	c.Backend.MatMulTABatchInto(out, a, b)
	c.charge(out.Numel()*a.Dim(1), out)
}

func (c costed) MatMulTBBatchInto(out, a, b *tensor.Tensor) {
	c.Backend.MatMulTBBatchInto(out, a, b)
	c.charge(out.Numel()*a.Dim(2), out)
}

func (c costed) Add(dst, a, b *tensor.Tensor) { c.Backend.Add(dst, a, b); c.charge(dst.Numel(), dst) }

func (c costed) Sub(dst, a, b *tensor.Tensor) { c.Backend.Sub(dst, a, b); c.charge(dst.Numel(), dst) }

func (c costed) Mul(dst, a, b *tensor.Tensor) { c.Backend.Mul(dst, a, b); c.charge(dst.Numel(), dst) }

func (c costed) Scale(dst, a *tensor.Tensor, s float32) {
	c.Backend.Scale(dst, a, s)
	c.charge(dst.Numel(), dst)
}

func (c costed) Axpy(dst *tensor.Tensor, alpha float32, src *tensor.Tensor) {
	c.Backend.Axpy(dst, alpha, src)
	c.charge(dst.Numel(), dst)
}

func (c costed) Im2ColInto(out, x *tensor.Tensor, kh, kw, stride, pad int) {
	c.Backend.Im2ColInto(out, x, kh, kw, stride, pad)
	c.charge(out.Numel(), out)
}

func (c costed) Col2ImInto(out, cols *tensor.Tensor, kh, kw, stride, pad int) {
	c.Backend.Col2ImInto(out, cols, kh, kw, stride, pad)
	c.charge(cols.Numel(), out)
}

func (c costed) ConvForwardInto(out, w, x *tensor.Tensor, kh, kw, stride, pad int) {
	c.Backend.ConvForwardInto(out, w, x, kh, kw, stride, pad)
	c.charge(out.Numel()*w.Dim(1), out)
}

func (c costed) ConvGradWeightInto(out, grad, x *tensor.Tensor, kh, kw, stride, pad int) {
	c.Backend.ConvGradWeightInto(out, grad, x, kh, kw, stride, pad)
	c.charge(out.Numel()*grad.Dim(1), out)
}

// costedWorkers is one one-session rejoin-capable worker per rate, each
// on its own costed backend: rates[i] is worker i's virtual nanoseconds
// per multiply-add, and every worker stalls with probability pause per
// kernel call, worker i drawing under seed+i.
func costedWorkers(dial transport.Network, seed uint64, pause float64, rates ...int64) []WorkerConfig {
	cfgs := make([]WorkerConfig, len(rates))
	for i, rate := range rates {
		cfgs[i] = WorkerConfig{Sessions: 1, Rejoin: true, Dial: dial,
			Backend: costed{Backend: tensor.Default(), rate: rate, ns: new(atomic.Int64), seed: seed + uint64(i), pause: pause}}
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
		want  Event
	}{
		{"ring", "ring", lopsidedPlan(), []int64{4, 1, 1}, shedLopsided},
		{"hub", "hub", lopsidedPlan(), []int64{4, 1, 1}, shedLopsided},
		{"hybrid-ring", "ring", hybrid, []int64{1, 1, 4, 1}, shedHybrid},
		{"hybrid-hub", "hub", hybrid, []int64{1, 1, 4, 1}, shedHybrid},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := runSpec{plan: c.plan, dpu: true, steps: 12, batch: 4}
			net := transport.NewLoopback()
			addrs := startWorkersMixed(t, net, costedWorkers(net, 0, 0, c.rates...))
			counters, events := obs.NewMetrics(), &eventLog{}
			res, w, err := s.run(net, addrs, repartitionConfig(s, c.topo, counters, events))
			if err != nil {
				t.Fatalf("%s straggler run: %v\nevents:\n%v", c.name, err, events)
			}
			wantRepartitions(t, counters, events, c.want)
			s.check(t, res, w)
		})
	}
}

// The decisions the cost model gives. At rate 1 a tiny block at batch 4
// costs 110,628 ns (B1-B3; the teacher's 3x3 conv alone is 1536 outputs x
// 54 = 82,944 multiply-adds; the student's 1x1 input gradient is a conv,
// so no Col2Im is charged) and B0, on 3 input channels, half that. On
// the lopsided plan a 4x dev0 measures 4 x (55,314 + 110,628) = 663,768
// ns, and shedding B1, priced at its 4x cost of 442,512 ns, predicts a
// third better. On hybrid4 a 4x dev2 measures 4 x 2 x 110,628 = 885,024
// ns, and handing B2 to dev3 predicts 442,512 + 110,628 = 553,140 ns.
// Every step measures the same costs, so each paired sample is the same
// and the third — step 2's — clears the bound: the cut follows step 2.
var (
	shedLopsided = Event{Kind: EventRepartition, Step: 2, Plan: shedLopsidedPlan,
		Eval: sched.ReplanEval{Current: 663_768, Proposed: 442_512}}
	shedHybrid = Event{Kind: EventRepartition, Step: 2,
		Plan: plan("", g([]int{0, 1}, []int{0}), g([]int{2}, []int{1}), g([]int{3}, []int{2, 3})),
		Eval: sched.ReplanEval{Current: 885_024, Proposed: 553_140}}
)

// repartitionConfig is s's Config with the repartitioner armed.
func repartitionConfig(s runSpec, topology string, counters *obs.Metrics, events *eventLog) Config {
	cfg := s.config()
	cfg.Topology, cfg.Repartition, cfg.Metrics, cfg.OnEvent = topology, true, counters, events.add
	return cfg
}

// wantRepartitions asserts that the run repartitioned once per decision
// in want, and never otherwise: each cut after want's step onto a plan
// that places blocks as want's does and, where want has an evaluation,
// with exactly its measured and predicted bottlenecks.
func wantRepartitions(t *testing.T, counters *obs.Metrics, events *eventLog, want ...Event) {
	t.Helper()
	got := events.of(EventRepartition)
	if n := counters.Counter("repartitions").Load(); len(got) != len(want) || n != int64(len(want)) {
		t.Fatalf("repartitioned %d time(s) (counted %d), want %d; events:\n%v", len(got), n, len(want), events)
	}
	for i, w := range want {
		g := got[i]
		if g.Step != w.Step || g.Plan.Describe() != w.Plan.Describe() || w.Eval != (sched.ReplanEval{}) && g.Eval != w.Eval {
			t.Fatalf("repartition %d cut after step %d to %s (%+v), want after step %d to %s (%+v)",
				i, g.Step, g.Plan.Describe(), g.Eval, w.Step, w.Plan.Describe(), w.Eval)
		}
	}
}

// TestRepartitionDecidesAboveNoise draws runs of the lopsided plan on
// workers that stall at random (costed's pauses): seeds × pause levels ×
// {three equal workers, device 0's worker 4x slower}. Equal workers are
// never cut. The straggler is cut exactly once, to the shed plan, after
// the step the repartitioner decides when the run's span batches are
// replayed in step order — the decision is a function of the spans, not
// of the order they arrive in. Every run stays bit-identical. A failing
// subtest's name is its draw.
func TestRepartitionDecidesAboveNoise(t *testing.T) {
	leakCheck(t)
	s := runSpec{plan: lopsidedPlan(), dpu: true, steps: 12, batch: 4}
	ref := s.reference()
	for seed := range uint64(8) {
		for _, pause := range []float64{0.002, 0.005, 0.01, 0.02, 0.05} {
			for _, slow := range []int64{1, 4} {
				t.Run(fmt.Sprintf("seed%d/pause%g/slow%d", seed, pause, slow), func(t *testing.T) {
					net := transport.NewLoopback()
					addrs := startWorkersMixed(t, net, costedWorkers(net, 16*seed, pause, slow, 1, 1))
					counters, events := obs.NewMetrics(), &eventLog{}
					cfg := repartitionConfig(s, "ring", counters, events)
					var mu sync.Mutex
					arrived := make([][][]float64, 3) // device → its batches' block costs, in arrival order
					cfg.Trace, cfg.TraceSink = true, func(track string, spans []obs.Span) {
						var dev int
						if _, err := fmt.Sscanf(track, "dev%d", &dev); err == nil {
							mu.Lock()
							arrived[dev] = append(arrived[dev], obs.BlockBusy(spans))
							mu.Unlock()
						}
					}
					res, w, err := s.run(net, addrs, cfg)
					if err != nil {
						t.Fatalf("run: %v\nevents:\n%v", err, events)
					}
					cut := replayDecision(s.plan, arrived)
					switch {
					case slow == 1 && cut >= 0:
						t.Fatalf("equal workers: the replayed spans decide a cut after step %d", cut)
					case slow == 1:
						wantRepartitions(t, counters, events)
					case cut < 0:
						t.Fatalf("straggler: the replayed spans decide no cut; events:\n%v", events)
					default:
						t.Logf("cut after step %d", cut)
						wantRepartitions(t, counters, events, Event{Kind: EventRepartition, Step: cut, Plan: shedLopsidedPlan})
					}
					if err := ref.diff(res, w); err != nil {
						t.Fatalf("cluster run departs from engine.Run: %v", err)
					}
				})
			}
		}
	}
}

// shedLopsidedPlan is the placement a straggling device 0 is cut to.
var shedLopsidedPlan = plan("", g([]int{0}, []int{0}), g([]int{1}, []int{1}), g([]int{2}, []int{2, 3}))

// replayDecision feeds a fresh repartitioner of plan every device's
// measured steps from 0 on, in step order, and returns the step after
// which it executes a cut (every step is snapshotted), or -1. Each
// device's batches arrive in step order; a cut run's second attempt
// re-sends steps past the cut, but the replay stops at the cut.
func replayDecision(plan sched.Plan, arrived [][][]float64) int {
	rp := newRepartitioner(map[string]bool{sched.Fingerprint(plan): true}, len(arrived), 0)
	for step := 0; ; step++ {
		busy := make(map[int][]float64, len(arrived))
		for d, steps := range arrived {
			if step >= len(steps) {
				return -1
			}
			busy[d] = steps[step]
		}
		if _, _, ok := rp.evaluate(plan, busy); ok {
			return step
		}
	}
}

// TestRepartitionBoundTrimsOneStall: under ten samples the bound is the
// mean less three standard errors; from ten on, one step whose moved
// block stalled (a sample of −0.54 among nine of 1/3, the straggler's
// noiseless gain) is trimmed off, where the untrimmed bound, under 0, would
// keep the straggler uncut.
func TestRepartitionBoundTrimsOneStall(t *testing.T) {
	samples := []float64{0.2, 0.3, 0.4, 0.5}
	if got, want := lowerBound(samples), 0.35-3*math.Sqrt(0.05/3)/2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("untrimmed bound %v, want mean − 3·SE = %v", got, want)
	}
	stalled := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3, 1.0 / 3, -0.54, 1.0 / 3, 1.0 / 3, 1.0 / 3, 1.0 / 3, 1.0 / 3}
	if got := lowerBound(stalled[:9]); got >= repartitionThreshold {
		t.Fatalf("nine samples, one stalled: bound %v clears %v untrimmed", got, repartitionThreshold)
	}
	if got := lowerBound(stalled); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("ten samples, one stalled: bound %v, want the trimmed 1/3", got)
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
	addrs := startWorkersMixed(t, net, costedWorkers(net, 0, 0, 4, 1, 1))
	counters, events := obs.NewMetrics(), &eventLog{}
	res, w, err := s.run(net, addrs, repartitionConfig(s, "ring", counters, events))
	if err != nil {
		t.Fatalf("hybrid run: %v", err)
	}
	wantRepartitions(t, counters, events)
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
	addrs := startWorkersMixed(t, inner, costedWorkers(delay, 0, 0, 1, 1, 1))
	counters, events := obs.NewMetrics(), &eventLog{}
	res, w, err := s.run(inner, addrs, repartitionConfig(s, "ring", counters, events))
	if err != nil {
		t.Fatalf("peer-delay run: %v", err)
	}
	allFired(t, delay)
	wantRepartitions(t, counters, events)
	s.check(t, res, w)
}

// crashTopologies are the topologies both kill-and-resume tests crash
// and resume under: on the ring the killed session's workers link to the
// others, whose sessions fail with it; on the hub none do.
var crashTopologies = []string{"ring", "hub"}

// crashAfterRepartitionRun is the crashed run both kill-and-resume tests
// resume: a durable run of the lopsided plan over topo sheds its
// straggler's block after step 2 and then loses its coordinator, which
// the loss row of step 6 from the new attempt's first session kills
// (connection 3: the first attempt dialed 0-2), failing with the injected
// fault — on the ring too, where the killed session's end fails its
// peers' sessions, because the coordinator reads the kill before its
// worker sees the connection break. It checks the ledger's repartition
// record and returns the run's spec, network and ledger directory.
func crashAfterRepartitionRun(t *testing.T, topo string) (runSpec, transport.Network, string) {
	t.Helper()
	s := runSpec{plan: lopsidedPlan(), dpu: true, steps: 12, batch: 4}
	inner := transport.NewLoopback()
	addrs := startWorkersMixed(t, inner, costedWorkers(inner, 0, 0, 4, 1, 1))
	dir := filepath.Join(t.TempDir(), "ledger")
	counters, events := obs.NewMetrics(), &eventLog{}
	cfg := repartitionConfig(s, topo, counters, events)
	cfg.LedgerDir = dir
	crash := transport.NewChaos(inner, transport.Fault{
		Trigger: transport.Trigger{Conn: 3, Op: transport.OpRecv, Kind: wire.KindLosses, Step: 6, Count: 1},
		Action:  transport.ActKill,
	})
	_, _, err := s.run(crash, addrs, cfg)
	wantRepartitions(t, counters, events, shedLopsided)
	if !errors.Is(err, transport.ErrChaos) {
		t.Fatalf("the rigged run got %v, want the injected coordinator crash\nevents:\n%v", err, events)
	}
	allFired(t, crash)
	led, _, rep, err := ledger.Open(dir)
	if err != nil {
		t.Fatalf("reopening crashed ledger: %v", err)
	}
	led.Close()
	var cuts []int
	for _, rec := range rep.Records {
		if rec.Type == ledger.TypeRepartition {
			cuts = append(cuts, rec.Step)
		}
	}
	if !slices.Equal(cuts, []int{2}) {
		t.Fatalf("crashed ledger holds repartition records at steps %v, want one at step 2; events:\n%v", cuts, events)
	}
	return s, inner, dir
}

// TestRepartitionCoordinatorKillResume crosses the two recovery planes:
// a durable run repartitions away from a straggler mid-run, then
// the coordinator is killed under the new placement, and ResumeRun must restore
// across the plan-generation boundary — replaying the first generation's
// records under the original plan, remapping the carry onto the recorded
// re-plan, and finishing bit-identically under the new placement.
func TestRepartitionCoordinatorKillResume(t *testing.T) {
	for _, topo := range crashTopologies {
		t.Run(topo, func(t *testing.T) {
			leakCheck(t)
			s, inner, dir := crashAfterRepartitionRun(t, topo)
			events := &eventLog{}
			res, w2, err := ResumeRun(inner, dir, ResumeConfig{JoinTimeout: 10 * time.Second, OnEvent: events.add})
			if err != nil {
				t.Fatalf("resume across repartition failed: %v\nevents:\n%v", err, events)
			}
			resumed := events.of(EventResumed)
			if len(resumed) != 1 || resumed[0].Generations != 2 || resumed[0].Topology != topo ||
				resumed[0].Plan.Describe() != shedLopsidedPlan.Describe() {
				t.Fatalf("resumed %+v, want once, from two plan generations of a %s run, onto %s",
					resumed, topo, shedLopsidedPlan.Describe())
			}
			s.check(t, res, w2)
		})
	}
}

// TestRepartitionCompactedLedgerResume extends the compaction acceptance
// to plan generations: the same crashed repartitioned run as above, but
// the ledger is compacted before the resume. The compacted log must hold
// one checkpoint per generation with the repartition records between
// them, and the resume across the generation boundary must still finish
// bit-identically to the fault-free in-process pipeline.
func TestRepartitionCompactedLedgerResume(t *testing.T) {
	for _, topo := range crashTopologies {
		t.Run(topo, func(t *testing.T) {
			leakCheck(t)
			s, inner, dir := crashAfterRepartitionRun(t, topo)

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
		})
	}
}
