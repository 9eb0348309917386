package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

// ringWorkers brings up n ring-capable workers (they dial siblings over
// the same network they listen on) and returns their addresses.
func ringWorkers(t *testing.T, net transport.Network, n int, cfg WorkerConfig) []string {
	t.Helper()
	cfg.Dial = net
	return startWorkers(t, net, n, cfg)
}

// TestRingMatchesPipelinedAcrossPlans is the ring topology's acceptance
// sweep: plan shapes (including a 3-way split, which exercises the true
// reduce-scatter + all-gather ring rather than the k=2 full exchange),
// DPU modes, and worker counts, all bit-identical to the in-process
// engine.
func TestRingMatchesPipelinedAcrossPlans(t *testing.T) {
	batches := tinyBatches(5, 6)
	plans := map[string]sched.Plan{
		"tr-2dev": plan("tr-2dev", g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3})),
		"hybrid":  hybridPlan(),
		"tail-dp": plan("tail-dp", g([]int{0}, []int{0, 1}), g([]int{1, 2}, []int{2, 3})),
		"dp3":     plan("dp3", g([]int{0, 1, 2}, []int{0, 1}), g([]int{3}, []int{2, 3})),
	}
	for name, p := range plans {
		for _, dpu := range []bool{false, true} {
			for _, workers := range []int{1, 2, 3} {
				ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
				refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: dpu, LR: 0.05, Momentum: 0.9})

				net := transport.NewLoopback()
				addrs := ringWorkers(t, net, workers, WorkerConfig{Sessions: 1})
				w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
				res, err := Run(net, addrs, w, batches, Config{Plan: p, DPU: dpu,
					LR: 0.05, Momentum: 0.9, Topology: "ring",
					Spec: TinySpec(distill.DefaultTinyConfig())})
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

// TestRingDataRecipe covers distributed data loading: a run handed
// Config.Data ships no batch tensors anywhere — sessions hosting group-0
// devices regenerate the schedule locally from the recipe — and stays
// bit-identical to the in-process engine. A recipe that fails to
// reproduce the run's actual batches must be rejected up front, before
// any worker session starts.
func TestRingDataRecipe(t *testing.T) {
	const steps, batch = 5, 6
	batches := tinyBatches(steps, batch)
	tiny := distill.DefaultTinyConfig()
	// The recipe mirrors tinyBatches exactly.
	spec := wire.DataSpec{Seed: 7, N: steps * batch, C: 3,
		H: tiny.Height, W: tiny.Width, Classes: 4, Batch: batch}
	p := hybridPlan()
	ref := distill.NewTinyWorkbench(tiny)
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	net := transport.NewLoopback()
	addrs := ringWorkers(t, net, 3, WorkerConfig{Sessions: 1})
	w := distill.NewTinyWorkbench(tiny)
	res, err := Run(net, addrs, w, batches, Config{Plan: p, DPU: true,
		LR: 0.05, Momentum: 0.9, Topology: "ring", Data: spec,
		Spec: TinySpec(tiny)})
	if err != nil {
		t.Fatalf("ring data-recipe run: %v", err)
	}
	lossesBitIdentical(t, "data recipe", res, refRes)
	weightsBitIdentical(t, "data recipe", w, ref)

	bad := spec
	bad.Seed = 8
	w2 := distill.NewTinyWorkbench(tiny)
	_, err = Run(transport.NewLoopback(), []string{"unused"}, w2, batches,
		Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
			Topology: "ring", Data: bad, Spec: TinySpec(tiny)})
	if err == nil || !strings.Contains(err.Error(), "Config.Data") {
		t.Fatalf("bad recipe: got %v, want Config.Data validation error", err)
	}
}

// TestRingBitEquivalenceTCP runs the hybrid plan over real TCP sockets in
// ring topology: three workers, peer-to-peer data plane, bit-identical to
// the in-process engine.
func TestRingBitEquivalenceTCP(t *testing.T) {
	batches := tinyBatches(6, 8)
	p := hybridPlan()
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	net := transport.TCP{}
	addrs := ringWorkers(t, net, 3, WorkerConfig{Sessions: 1})
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	res, err := Run(net, addrs, w, batches, Config{Plan: p, DPU: true,
		LR: 0.05, Momentum: 0.9, Topology: "ring",
		Spec: TinySpec(distill.DefaultTinyConfig())})
	if err != nil {
		t.Fatalf("tcp ring run: %v", err)
	}
	lossesBitIdentical(t, "tcp ring vs in-process", res, refRes)
	weightsBitIdentical(t, "tcp ring vs in-process", w, ref)
}

// TestRingRecoveryBitEquivalence is the ring fault-tolerance matrix: a
// peer-to-peer connection is killed while a ring all-reduce segment or a
// forwarded activation is in flight — at the first, a middle, and the
// last step — on loopback and on real TCP. The cascade (the stranded
// peers cannot finish their collectives either) must collapse into one
// global restart from the cut, and the finished run must match the
// fault-free in-process trajectory bit for bit. leakCheck guards the
// attempt-teardown path: no stranded device loops, mesh readers, or
// outbox writers.
func TestRingRecoveryBitEquivalence(t *testing.T) {
	leakCheck(t)
	const steps = 5
	batches := tinyBatches(steps, 8)
	p := hybridPlan()

	refs := map[bool]*distill.Workbench{}
	refRes := map[bool]engine.Result{}
	for _, dpu := range []bool{false, true} {
		ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
		refRes[dpu] = engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: dpu, LR: 0.05, Momentum: 0.9})
		refs[dpu] = ref
	}

	transports := map[string]func() transport.Network{
		"loopback": func() transport.Network { return transport.NewLoopback() },
		"tcp":      func() transport.Network { return transport.TCP{} },
	}
	kinds := map[string]wire.Kind{
		"all-reduce":  wire.KindRingSegment,
		"activations": wire.KindPeerInput,
	}
	for netName, mkNet := range transports {
		for kindName, kind := range kinds {
			for _, killStep := range []int32{0, steps / 2, steps - 1} {
				// Exercise the barrier path under all-reduce kills and the
				// DPU path under activation kills.
				dpu := kind == wire.KindPeerInput
				label := fmt.Sprintf("%s/%s/kill-step-%d", netName, kindName, killStep)
				t.Run(label, func(t *testing.T) {
					inner := mkNet()
					// All workers share one chaos-wrapped dial network, so the
					// fault arms on whichever peer link carries the matching
					// frame first. The coordinator dials over the inner net.
					chaos := transport.NewChaos(inner, transport.Fault{
						Trigger: transport.Trigger{Conn: transport.AnyConn, Op: transport.OpRecv,
							Kind: kind, Step: killStep, Count: 1},
						Action: transport.ActKill,
					})
					addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 1, Rejoin: true, Dial: chaos})
					logf, logs := captureLog()
					w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
					res, err := Run(inner, addrs, w, batches, Config{
						Plan: p, DPU: dpu, LR: 0.05, Momentum: 0.9, Topology: "ring",
						Spec:        TinySpec(distill.DefaultTinyConfig()),
						MaxRestarts: 2, JoinTimeout: 10 * time.Second, Logf: logf,
					})
					if err != nil {
						t.Fatalf("ring run with injected kill failed: %v\nlog:\n%s", err, logs())
					}
					if !strings.Contains(logs(), "restarting every device from step") {
						t.Fatalf("kill did not trigger a ring restart; log:\n%s", logs())
					}
					lossesBitIdentical(t, label, res, refRes[dpu])
					weightsBitIdentical(t, label, w, refs[dpu])
				})
			}
		}
	}
}

// TestRingRecoveryFallsBackToSurvivingWorker: when the worker process
// itself dies (listener closed, sessions killed) the restart attempt
// cannot re-join it; its devices must land on the surviving worker — the
// peer directory then points both pipeline stages at one address — and
// the run still finishes bit-identically.
func TestRingRecoveryFallsBackToSurvivingWorker(t *testing.T) {
	leakCheck(t)
	batches := tinyBatches(4, 8)
	p := plan("tr-2dev", g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3}))
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	inner := transport.NewLoopback()
	// Kill the peer link carrying step 1's forwarded activation; worker B
	// exits after that failed session (no Rejoin), so the restart falls
	// back to worker A for both devices.
	chaos := transport.NewChaos(inner, transport.Fault{
		Trigger: transport.Trigger{Conn: transport.AnyConn, Op: transport.OpRecv,
			Kind: wire.KindPeerInput, Step: 1, Count: 1},
		Action: transport.ActKill,
	})
	addrA := startWorkers(t, inner, 1, WorkerConfig{Rejoin: true, Dial: chaos})[0]
	addrB := startWorkers(t, inner, 1, WorkerConfig{Sessions: 1, Dial: chaos})[0]
	logf, logs := captureLog()
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	res, err := Run(inner, []string{addrA, addrB}, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9, Topology: "ring",
		Spec:        TinySpec(distill.DefaultTinyConfig()),
		MaxRestarts: 2, JoinTimeout: 10 * time.Second, Logf: logf,
	})
	if err != nil {
		t.Fatalf("ring fallback run failed: %v\nlog:\n%s", err, logs())
	}
	if !strings.Contains(logs(), "restarting every device from step") {
		t.Fatalf("kill did not trigger a ring restart; log:\n%s", logs())
	}
	lossesBitIdentical(t, "ring surviving-worker fallback", res, refRes)
	weightsBitIdentical(t, "ring surviving-worker fallback", w, ref)
}

// TestRingRecoveryBudgetExhausted: once the restart budget is spent, the
// next loss fails the run with the injected cause, and the failure
// teardown leaks nothing.
func TestRingRecoveryBudgetExhausted(t *testing.T) {
	leakCheck(t)
	batches := tinyBatches(5, 8)
	p := hybridPlan()
	inner := transport.NewLoopback()
	chaos := transport.NewChaos(inner,
		transport.Fault{Trigger: transport.Trigger{Conn: transport.AnyConn, Op: transport.OpRecv,
			Kind: wire.KindRingSegment, Step: 1, Count: 1}, Action: transport.ActKill},
		transport.Fault{Trigger: transport.Trigger{Conn: transport.AnyConn, Op: transport.OpRecv,
			Kind: wire.KindRingSegment, Step: 3, Count: 1}, Action: transport.ActKill},
	)
	addrs := startWorkers(t, inner, 2, WorkerConfig{Rejoin: true, Dial: chaos})
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	_, err := Run(inner, addrs, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9, Topology: "ring",
		Spec:        TinySpec(distill.DefaultTinyConfig()),
		MaxRestarts: 1, JoinTimeout: 5 * time.Second,
	})
	if err == nil {
		t.Fatal("ring run survived more deaths than MaxRestarts allows")
	}
}

// TestRingRejectsMisconfiguration: ring sessions need a dial network on
// the worker, and unknown topologies are rejected up front.
func TestRingRejectsMisconfiguration(t *testing.T) {
	batches := tinyBatches(2, 8)
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	cfg := Config{Plan: hybridPlan(), DPU: true, LR: 0.05,
		Spec: TinySpec(distill.DefaultTinyConfig()), Topology: "mesh"}
	if _, err := Run(transport.NewLoopback(), []string{"x"}, w, batches, cfg); err == nil {
		t.Fatal("unknown topology accepted")
	}

	// Worker without a dial network: the session fails, the run errors.
	net := transport.NewLoopback()
	addrs := startWorkers(t, net, 1, WorkerConfig{Sessions: 1, Rejoin: true})
	cfg.Topology = "ring"
	if _, err := Run(net, addrs, w, batches, cfg); err == nil {
		t.Fatal("ring session without worker dial network succeeded")
	}
}

// TestAssembleShards: the one assembly hub and ring share concatenates in
// rank order, passes a lone shard through and reports unequal shards
// instead of copying past them.
func TestAssembleShards(t *testing.T) {
	a, b := tensor.New(2, 3), tensor.New(2, 3)
	a.Fill(1)
	b.Fill(2)
	full, err := assembleShards([]*tensor.Tensor{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if got := full.Shape(); len(got) != 2 || got[0] != 4 || got[1] != 3 {
		t.Fatalf("assembled shape %v, want [4 3]", got)
	}
	for i, v := range full.Data() {
		if want := float32(1 + i/6); v != want {
			t.Fatalf("element %d is %v, want %v: shards out of rank order", i, v, want)
		}
	}
	if one, err := assembleShards([]*tensor.Tensor{a}); err != nil || one != a {
		t.Fatal("a lone shard is the batch and must be returned as is")
	}
	if _, err := assembleShards([]*tensor.Tensor{a, tensor.New(1, 3)}); err == nil || !strings.Contains(err.Error(), "shard sizes differ") {
		t.Fatalf("unequal shards: err = %v", err)
	}
}
