package cluster

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

// tinyData is the recipe of n batches of batch samples for the tiny
// workbench — what every cluster run's Config.Data names — and
// tinyBatches is its evaluation, what the in-process reference trains on.
func tinyData(n, batch int) wire.DataSpec {
	cfg := distill.DefaultTinyConfig()
	return wire.DataSpec{Seed: 7, N: n * batch, C: 3, H: cfg.Height, W: cfg.Width, Classes: 4, Batch: batch}
}

func tinyBatches(n, batch int) []dataset.Batch { return mustBatches(tinyData(n, batch)) }

func mustBatches(ds wire.DataSpec) []dataset.Batch {
	batches, err := ds.Batches()
	if err != nil {
		panic(err)
	}
	return batches
}

func g(devs, blocks []int) sched.Group { return sched.Group{Devices: devs, Blocks: blocks} }

func plan(name string, groups ...sched.Group) sched.Plan {
	return sched.Plan{Name: name, Groups: groups}
}

// hybridPlan is an AHD-shaped distribution: the first two devices train
// blocks 0-1 data-parallel, the third trains blocks 2-3 alone.
func hybridPlan() sched.Plan {
	return plan("hybrid", g([]int{0, 1}, []int{0, 1}), g([]int{2}, []int{2, 3}))
}

// startWorkers brings up n worker servers on the network and returns
// their addresses. Cleanup closes them and waits for Serve to return.
func startWorkers(t *testing.T, net transport.Network, n int, cfg WorkerConfig) []string {
	t.Helper()
	addrs := make([]string, n)
	workers := make([]*Worker, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
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
	// Close every worker before waiting: a still-serving worker must not
	// deadlock the wait for an already-closed sibling.
	t.Cleanup(func() {
		for _, w := range workers {
			w.Close()
		}
		wg.Wait()
	})
	return addrs
}

func listenAddr(net transport.Network) string {
	if _, ok := net.(transport.TCP); ok {
		return "127.0.0.1:0"
	}
	return ""
}

// lossesBitIdentical compares two loss trajectories for exact float64
// equality.
func lossesBitIdentical(t *testing.T, label string, a, b engine.Result) {
	t.Helper()
	if len(a.Loss) != len(b.Loss) {
		t.Fatalf("%s: %d vs %d blocks", label, len(a.Loss), len(b.Loss))
	}
	for blk := range a.Loss {
		if len(a.Loss[blk]) != len(b.Loss[blk]) {
			t.Fatalf("%s: block %d has %d vs %d steps", label, blk, len(a.Loss[blk]), len(b.Loss[blk]))
		}
		for s := range a.Loss[blk] {
			if a.Loss[blk][s] != b.Loss[blk][s] {
				t.Fatalf("%s: loss diverged at block %d step %d: %v vs %v",
					label, blk, s, a.Loss[blk][s], b.Loss[blk][s])
			}
		}
	}
}

// weightsBitIdentical compares every student parameter of two
// workbenches exactly.
func weightsBitIdentical(t *testing.T, label string, a, b *distill.Workbench) {
	t.Helper()
	for blk := 0; blk < a.NumBlocks(); blk++ {
		pa, pb := a.StudentParams(blk), b.StudentParams(blk)
		if len(pa) != len(pb) {
			t.Fatalf("%s: block %d param count mismatch", label, blk)
		}
		for i := range pa {
			if !pa[i].Value.Equal(pb[i].Value) {
				t.Fatalf("%s: block %d param %d (%s) differs", label, blk, i, pa[i].Name)
			}
		}
	}
}

// TestClusterBitEquivalenceLoopbackAndTCP is the subsystem's acceptance
// test: a hybrid (AHD) plan executed (a) in-process by RunPipelined, (b)
// on a 2-worker loopback cluster, and (c) on a real 2-worker TCP cluster
// on localhost must produce bit-identical per-block loss trajectories and
// bit-identical trained student weights. Combined with the engine's
// equivalence suite (which pins RunPipelined to RunSequential), this
// extends the paper's "no modification to the mathematical formulation"
// claim across process boundaries.
func TestClusterBitEquivalenceLoopbackAndTCP(t *testing.T) {
	batches := tinyBatches(6, 8)
	p := hybridPlan()
	cfg := Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
		Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(6, 8)}

	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	loopNet := transport.NewLoopback()
	loopAddrs := startWorkers(t, loopNet, 2, WorkerConfig{Sessions: 1})
	loopW := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	loopRes, err := Run(loopNet, loopAddrs, loopW, batches, cfg)
	if err != nil {
		t.Fatalf("loopback cluster run: %v", err)
	}
	lossesBitIdentical(t, "loopback vs in-process", loopRes, refRes)
	weightsBitIdentical(t, "loopback vs in-process", loopW, ref)

	tcpNet := transport.TCP{}
	tcpAddrs := startWorkers(t, tcpNet, 2, WorkerConfig{Sessions: 1})
	tcpW := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	tcpRes, err := Run(tcpNet, tcpAddrs, tcpW, batches, cfg)
	if err != nil {
		t.Fatalf("tcp cluster run: %v", err)
	}
	lossesBitIdentical(t, "tcp vs in-process", tcpRes, refRes)
	weightsBitIdentical(t, "tcp vs in-process", tcpW, ref)
}

// TestClusterMatchesPipelinedAcrossPlans sweeps plan shapes, DPU modes,
// and worker counts on loopback: every combination must reproduce the
// in-process trajectory exactly.
func TestClusterMatchesPipelinedAcrossPlans(t *testing.T) {
	batches := tinyBatches(5, 8)
	plans := map[string]sched.Plan{
		"tr-2dev": plan("tr-2dev", g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3})),
		"tr-4dev": plan("tr-4dev", g([]int{0}, []int{0}), g([]int{1}, []int{1}), g([]int{2}, []int{2}), g([]int{3}, []int{3})),
		"hybrid":  hybridPlan(),
		"ir-2dev": sched.InternalRelaying(2, 4),
		"tail-dp": plan("tail-dp", g([]int{0}, []int{0, 1}), g([]int{1, 2}, []int{2, 3})),
	}
	for name, p := range plans {
		for _, dpu := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
				refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: dpu, LR: 0.05, Momentum: 0.9})

				net := transport.NewLoopback()
				addrs := startWorkers(t, net, workers, WorkerConfig{Sessions: 1})
				w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
				res, err := Run(net, addrs, w, batches, Config{Plan: p, DPU: dpu,
					LR: 0.05, Momentum: 0.9, Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(5, 8)})
				if err != nil {
					t.Fatalf("%s dpu=%v workers=%d: %v", name, dpu, workers, err)
				}
				label := name
				lossesBitIdentical(t, label, res, refRes)
				weightsBitIdentical(t, label, w, ref)
			}
		}
	}
}

// TestClusterSnapshotOverridesDrift: the coordinator's workbench weights
// (not the spec's fresh initialization) are what the cluster trains —
// verified by perturbing the coordinator's weights first.
func TestClusterSnapshotOverridesDrift(t *testing.T) {
	batches := tinyBatches(3, 8)
	p := plan("tr-2dev", g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3}))

	perturb := func(w *distill.Workbench) {
		for blk := 0; blk < w.NumBlocks(); blk++ {
			for _, prm := range w.StudentParams(blk) {
				d := prm.Value.Data()
				for i := range d {
					d[i] += 0.01
				}
			}
		}
	}
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	perturb(ref)
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	net := transport.NewLoopback()
	addrs := startWorkers(t, net, 1, WorkerConfig{Sessions: 1})
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	perturb(w)
	res, err := Run(net, addrs, w, batches, Config{Plan: p, DPU: true,
		LR: 0.05, Momentum: 0.9, Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(3, 8)})
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	lossesBitIdentical(t, "drifted seed", res, refRes)
	weightsBitIdentical(t, "drifted seed", w, ref)
}

// TestWorkerServesSequentialSessions: one worker handles several
// coordinator sessions back to back (join / drain / rejoin).
func TestWorkerServesSequentialSessions(t *testing.T) {
	batches := tinyBatches(3, 8)
	p := plan("tr-2dev", g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3}))
	net := transport.NewLoopback()
	addrs := startWorkers(t, net, 1, WorkerConfig{Sessions: 2})

	var results []*distill.Workbench
	for i := 0; i < 2; i++ {
		w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
		if _, err := Run(net, addrs, w, batches, Config{Plan: p, DPU: true,
			LR: 0.05, Momentum: 0.9, Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(3, 8)}); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		results = append(results, w)
	}
	weightsBitIdentical(t, "session 1 vs 2", results[0], results[1])
}

// TestCoordinatorRejectsBadConfigs: setup errors surface as errors, not
// hangs or panics.
func TestCoordinatorRejectsBadConfigs(t *testing.T) {
	batches := tinyBatches(2, 8)
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	net := transport.NewLoopback()
	good := Config{Plan: hybridPlan(), LR: 0.05, Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(2, 8)}

	bad := good
	bad.Plan = plan("short", g([]int{0}, []int{0})) // covers 1 of 4 blocks
	if _, err := Run(net, []string{"x"}, w, batches, bad); err == nil {
		t.Fatal("invalid plan accepted")
	}
	if _, err := Run(net, nil, w, batches, good); err == nil {
		t.Fatal("no workers accepted")
	}
	if _, err := Run(net, []string{"x"}, w, nil, good); err == nil {
		t.Fatal("no batches accepted")
	}
	bad = good
	bad.Spec.Blocks = 7
	if _, err := Run(net, []string{"x"}, w, batches, bad); err == nil {
		t.Fatal("spec/workbench block mismatch accepted")
	}
	// Batch size not divisible by a group's split.
	bad = good
	bad.Data = tinyData(1, 9)
	if _, err := Run(net, []string{"x"}, w, tinyBatches(1, 9), bad); err == nil || !strings.Contains(err.Error(), "not divisible") {
		t.Fatalf("indivisible batch: got %v, want a divisibility error", err)
	}
}

// panicOnce is a compute backend whose first ConvForwardInto panics; every
// later call, and every other kernel, runs the wrapped backend.
type panicOnce struct {
	tensor.Backend
	fired atomic.Bool
}

func (b *panicOnce) ConvForwardInto(out, w, x *tensor.Tensor, kh, kw, stride, pad int) {
	if b.fired.CompareAndSwap(false, true) {
		panic("poisoned kernel")
	}
	b.Backend.ConvForwardInto(out, w, x, kh, kw, stride, pad)
}

// TestWorkerSurvivesPoisonedSession: a session that blows up inside a
// device loop (here: a kernel that panics once) must fail that session
// only — the coordinator gets an error, and the same worker then serves a
// clean session successfully.
func TestWorkerSurvivesPoisonedSession(t *testing.T) {
	p := hybridPlan()
	cfg := Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
		Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(3, 8)}
	net := transport.NewLoopback()
	logf, logs := captureLog()
	addrs := startWorkers(t, net, 1, WorkerConfig{Sessions: 2, Logf: logf,
		Backend: &panicOnce{Backend: tensor.Default()}})
	batches := tinyBatches(3, 8)

	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	if _, err := Run(net, addrs, w, batches, cfg); err == nil {
		t.Fatal("poisoned session reported success")
	}
	if !strings.Contains(logs(), "device loop panicked: poisoned kernel") {
		t.Fatalf("worker did not fail the session on the device loop's panic; log:\n%s", logs())
	}

	// The worker must still be alive and serve a correct session.
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})
	w2 := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	res, err := Run(net, addrs, w2, batches, cfg)
	if err != nil {
		t.Fatalf("clean session after poisoned one: %v", err)
	}
	lossesBitIdentical(t, "post-poison session", res, refRes)
	weightsBitIdentical(t, "post-poison session", w2, ref)
}

// TestCoordinatorHandshakeTimeout: a TCP peer that accepts connections
// (listen backlog) but never speaks must not hang the join past the
// configured window.
func TestCoordinatorHandshakeTimeout(t *testing.T) {
	lis, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer lis.Close() // never Accept: connects succeed, nothing is sent
	batches := tinyBatches(2, 8)
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	cfg := Config{Plan: plan("tr-2dev", g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3})),
		LR: 0.05, Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(2, 8),
		JoinTimeout: 300 * time.Millisecond}
	start := time.Now()
	if _, err := Run(transport.TCP{}, []string{lis.Addr(), lis.Addr()}, w, batches, cfg); err == nil {
		t.Fatal("silent peer joined successfully")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("handshake wait was not bounded by the join timeout")
	}
}

// TestCoordinatorJoinTimeout: dialing a worker that never comes up fails
// within the join window instead of hanging.
func TestCoordinatorJoinTimeout(t *testing.T) {
	batches := tinyBatches(2, 8)
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	cfg := Config{Plan: plan("tr-2dev", g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3})),
		LR: 0.05, Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(2, 8),
		JoinTimeout: 200 * time.Millisecond}
	start := time.Now()
	if _, err := Run(transport.NewLoopback(), []string{"ghost-a", "ghost-b"}, w, batches, cfg); err == nil {
		t.Fatal("join to absent workers succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("join timeout did not bound the wait")
	}
}

// TestWorkerRejectsUnknownSpec: a worker handed a spec it cannot build
// fails the session; the coordinator surfaces an error.
func TestWorkerRejectsUnknownSpec(t *testing.T) {
	batches := tinyBatches(2, 8)
	net := transport.NewLoopback()
	addrs := startWorkers(t, net, 1, WorkerConfig{Sessions: 1})
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	cfg := Config{Plan: plan("tr-2dev", g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3})),
		LR: 0.05, Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(2, 8)}
	cfg.Spec.Name = "no-such-model"
	if _, err := Run(net, addrs, w, batches, cfg); err == nil {
		t.Fatal("unknown spec trained successfully")
	}
}

func TestPlaceDevices(t *testing.T) {
	cases := []struct {
		nDev, nWorkers int
		want           [][]int
	}{
		{4, 2, [][]int{{0, 1}, {2, 3}}},
		{3, 2, [][]int{{0, 1}, {2}}},
		{2, 3, [][]int{{0}, {1}, nil}},
		{5, 1, [][]int{{0, 1, 2, 3, 4}}},
	}
	for _, c := range cases {
		got := PlaceDevices(c.nDev, c.nWorkers)
		if len(got) != len(c.want) {
			t.Fatalf("PlaceDevices(%d,%d) = %v", c.nDev, c.nWorkers, got)
		}
		for i := range got {
			if len(got[i]) != len(c.want[i]) {
				t.Fatalf("PlaceDevices(%d,%d)[%d] = %v, want %v", c.nDev, c.nWorkers, i, got[i], c.want[i])
			}
			for j := range got[i] {
				if got[i][j] != c.want[i][j] {
					t.Fatalf("PlaceDevices(%d,%d)[%d] = %v, want %v", c.nDev, c.nWorkers, i, got[i], c.want[i])
				}
			}
		}
	}
}

// TestSnapshotCaptureInstall round-trips a workbench's parameters through
// capture + install on a fresh replica.
func TestSnapshotCaptureInstall(t *testing.T) {
	a := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	// Make a's weights distinctive.
	for blk := 0; blk < a.NumBlocks(); blk++ {
		for _, prm := range a.StudentParams(blk) {
			d := prm.Value.Data()
			for i := range d {
				d[i] *= 1.5
			}
		}
	}
	snap := CaptureSnapshot(a)
	b := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	if err := InstallSnapshot(b, snap); err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}
	weightsBitIdentical(t, "capture/install", a, b)

	// Mismatched architecture is rejected.
	cfg := distill.DefaultTinyConfig()
	cfg.Blocks = 2
	if err := InstallSnapshot(distill.NewTinyWorkbench(cfg), snap); err == nil {
		t.Fatal("snapshot installed into wrong architecture")
	}
}

func TestBuildWorkbenchUnknownSpec(t *testing.T) {
	if _, err := BuildWorkbench(TinySpec(distill.DefaultTinyConfig())); err != nil {
		t.Fatalf("tiny spec: %v", err)
	}
	bad := TinySpec(distill.DefaultTinyConfig())
	bad.Name = "mystery"
	if _, err := BuildWorkbench(bad); err == nil {
		t.Fatal("unknown spec built")
	}
}
