package cluster

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
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
// three-device plan whose front device carries half the blocks. Throttle
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

// stragglerWorkerConfigs is n one-session rejoin-capable workers, the
// slow-th throttled by the given factor: a bit-identical compute
// straggler.
func stragglerWorkerConfigs(net transport.Network, n, slow, factor int) []WorkerConfig {
	cfgs := make([]WorkerConfig, n)
	for i := range cfgs {
		cfgs[i] = WorkerConfig{Sessions: 1, Rejoin: true, Dial: net}
	}
	cfgs[slow].Backend = tensor.NewThrottled(tensor.Default(), factor)
	return cfgs
}

// TestRepartitionShedsStraggler is the repartitioner's equivalence test: a
// cluster one worker of which computes 12x slower runs a plan that
// overloads it, with the repartitioner armed. The controller must fire
// at least once (shedding load off the straggler from measured span
// timings), and the final loss trajectory and trained weights must stay
// bit-identical to the fault-free in-process pipeline under the original
// plan — repartitioning may only move wall-clock, never a float. Both
// data planes are covered: the ring (peer-to-peer) and the hub. The
// hybrid rows put the straggler behind a split group, whose members,
// shares and blocks the re-plan must leave alone.
//
// The throttle stretches kernel time only, so the straggler shows only
// as far as kernels make up a block's measured time, and the gain the
// repartitioner predicts is bounded by the lighter of the straggler's
// two blocks. Over 20 runs of both data planes on the lopsided plan the
// predicted gain at a 4x throttle ranged down to 0.11 (median 0.29), and
// faster kernels shrink it further; at 12x its least was 0.33 (median
// 0.44), well clear of the 0.1 threshold.
func TestRepartitionShedsStraggler(t *testing.T) {
	leakCheck(t)
	hybrid := plan("hybrid4", g([]int{0, 1}, []int{0}), g([]int{2}, []int{1, 2}), g([]int{3}, []int{3}))
	for _, c := range []struct {
		name    string
		topo    string
		plan    sched.Plan
		workers int
		slow    int // the throttled worker, which hosts the device of that rank
	}{
		{"ring", "ring", lopsidedPlan(), 3, 0},
		{"hub", "hub", lopsidedPlan(), 3, 0},
		{"hybrid-ring", "ring", hybrid, 4, 2},
		{"hybrid-hub", "hub", hybrid, 4, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			const steps, batch = 12, 4
			batches := tinyBatches(steps, batch)
			ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
			refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: c.plan, DPU: true, LR: 0.05, Momentum: 0.9})

			net := transport.NewLoopback()
			addrs := startWorkersMixed(t, net, stragglerWorkerConfigs(net, c.workers, c.slow, 12))
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
			if n := counters.Counter("repartitions").Load(); n < 1 {
				t.Fatalf("%s: repartitioner never fired against a 12x straggler; log:\n%s", c.name, logs())
			}
			if !strings.Contains(logs(), "repartitioning after step") {
				t.Fatalf("%s: no repartition log line; log:\n%s", c.name, logs())
			}
			lossesBitIdentical(t, c.name+" straggler repartition", res, refRes)
			weightsBitIdentical(t, c.name+" straggler repartition", w, ref)
		})
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
	addrs := startWorkersMixed(t, net, stragglerWorkerConfigs(net, 3, 0, 4))
	counters := obs.NewMetrics()
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	res, err := Run(net, addrs, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
		Topology: "ring", Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(steps, batch),
		Repartition: true,
		Metrics:     counters,
		JoinTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("hybrid run: %v", err)
	}
	if n := counters.Counter("repartitions").Load(); n != 0 {
		t.Fatalf("repartitioned a plan with nothing movable %d time(s)", n)
	}
	lossesBitIdentical(t, "hybrid under repartitioner", res, refRes)
	weightsBitIdentical(t, "hybrid under repartitioner", w, ref)
}

// TestRepartitionPersistentPeerDelayBitIdentical pins down the boundary
// of what repartitioning can fix: a persistent transport delay on a peer
// activation link (chaos Repeat fault) slows the run but lands in wait
// spans, not block compute, so the measured per-block costs stay
// balanced and the controller correctly refrains from firing — while the
// run, chaos and all, stays bit-identical with the machinery armed.
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
	cfg := WorkerConfig{Sessions: 1, Rejoin: true, Dial: delay}
	addrs := startWorkers(t, inner, 3, cfg)
	counters := obs.NewMetrics()
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	res, err := Run(inner, addrs, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
		Topology: "ring", Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(steps, batch),
		Repartition: true,
		Metrics:     counters,
		JoinTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("peer-delay run: %v", err)
	}
	lossesBitIdentical(t, "peer delay under repartitioner", res, refRes)
	weightsBitIdentical(t, "peer delay under repartitioner", w, ref)
}

// crashAfterRepartition is the coordinator network of the kill-and-resume
// tests: once the run has repartitioned, it kills the control connection
// that delivers the next loss row, simulating a coordinator crash under
// the new placement. When the repartitioner fires depends on measured
// timings, so a kill keyed on a fixed step could instead land on a
// connection of the attempt the repartition superseded, and crash nothing.
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
	addrs := startWorkersMixed(t, inner, stragglerWorkerConfigs(inner, 3, 0, 4))
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
	if n := counters.Counter("repartitions").Load(); n < 1 {
		t.Fatalf("repartitioner never fired before the crash; log:\n%s", logs())
	}
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
	if cuts < 1 {
		t.Fatalf("crashed ledger holds no repartition record; log:\n%s", logs())
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
	addrs := startWorkersMixed(t, inner, stragglerWorkerConfigs(inner, 3, 0, 4))
	dir := filepath.Join(t.TempDir(), "ledger")
	counters := obs.NewMetrics()
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	_, err := Run(newCrashAfterRepartition(inner, counters), addrs, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
		Topology: "ring", Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(steps, batch),
		Repartition: true,
		LedgerDir:   dir,
		Metrics:     counters,
		JoinTimeout: 10 * time.Second,
	})
	if n := counters.Counter("repartitions").Load(); n < 1 {
		t.Fatal("repartitioner never fired before the crash")
	}
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
	// One checkpoint per plan generation, the repartition records between.
	if n := len(rep.Records); n < 3 || n%2 == 0 {
		t.Fatalf("compacted ledger holds %d records, want checkpoint(/repartition/checkpoint)+", n)
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
