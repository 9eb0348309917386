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
	"pipebd/internal/obs"
)

// fastRetry is the absorption policy the flap tests run under: near-
// immediate redial, a budget comfortably above any in-process reconnect,
// frequent acks so replay windows stay small.
func fastRetry() wire.RetrySpec {
	return wire.RetrySpec{BackoffMillis: 1, BudgetMillis: 2000, AckEvery: 2}
}

// shortRetry exhausts quickly: the persistent-partition tests wait out
// this budget once per broken endpoint before the degrade tier engages,
// so it stays small.
func shortRetry() wire.RetrySpec {
	return wire.RetrySpec{BackoffMillis: 1, BudgetMillis: 250, AckEvery: 2}
}

// TestRingFlapAbsorbedBitEquivalence is the transient-fault matrix: a
// link flaps — breaks and immediately accepts a redial — while a ring
// all-reduce segment, a forwarded activation, or a control-link loss
// report is in flight, at the first, a middle, and the last step, on
// loopback and on real TCP. Every flap must be absorbed by the resumable
// layer (reconnect, replay) without consuming any restart budget: the
// runs execute with MaxRestarts 0, must not log a global restart, and
// must finish bit-identical to the fault-free in-process pipeline. The
// hub rows flap the control link of a hub run — a loss report on its way
// in under DPU, a barrier release on its way out without — which is the
// only path that resumes a session no peer mesh registered.
func TestRingFlapAbsorbedBitEquivalence(t *testing.T) {
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
	type link struct {
		kind     wire.Kind
		op       transport.Op // as the dialing side sees the frame
		topology string
		dpu      bool
	}
	links := map[string]link{
		"all-reduce":  {kind: wire.KindRingSegment, op: transport.OpRecv, topology: "ring"},
		"activations": {kind: wire.KindPeerInput, op: transport.OpRecv, topology: "ring", dpu: true},
		// Loss reports cross the worker->coordinator control link, barrier
		// releases the same link the other way.
		"control":         {kind: wire.KindLosses, op: transport.OpRecv, topology: "ring"},
		"hub-control-dpu": {kind: wire.KindLosses, op: transport.OpRecv, topology: "hub", dpu: true},
		"hub-control":     {kind: wire.KindStepGo, op: transport.OpSend, topology: "hub"},
	}
	for netName, mkNet := range transports {
		for linkName, lk := range links {
			for _, flapStep := range []int32{0, steps / 2, steps - 1} {
				kind, dpu := lk.kind, lk.dpu
				label := fmt.Sprintf("%s/%s/flap-step-%d", netName, linkName, flapStep)
				t.Run(label, func(t *testing.T) {
					inner := mkNet()
					chaos := transport.NewChaos(inner, transport.Fault{
						Trigger: transport.Trigger{Conn: transport.AnyConn, Op: lk.op,
							Kind: kind, Step: flapStep, Count: 1},
						Action: transport.ActFlap,
					})
					// Control flaps break a coordinator-dialed link, peer
					// flaps a worker-to-worker one; wrap whichever side the
					// fault targets and leave the other on the raw network.
					coordNet, workerDial := transport.Network(inner), transport.Network(chaos)
					if kind == wire.KindLosses || kind == wire.KindStepGo {
						coordNet, workerDial = chaos, inner
					}
					counters := obs.NewMetrics()
					addrs := startWorkers(t, inner, 2, WorkerConfig{
						Sessions: 1, Rejoin: true, Dial: workerDial, Metrics: counters})
					logf, logs := captureLog()
					w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
					res, err := Run(coordNet, addrs, w, batches, Config{
						Plan: p, DPU: dpu, LR: 0.05, Momentum: 0.9, Topology: lk.topology,
						Spec:  TinySpec(distill.DefaultTinyConfig()),
						Retry: fastRetry(), Metrics: counters,
						JoinTimeout: 10 * time.Second, Logf: logf,
					})
					if err != nil {
						t.Fatalf("%s run with injected flap failed: %v\nlog:\n%s", lk.topology, err, logs())
					}
					if unfired := chaos.Unfired(); len(unfired) > 0 {
						t.Fatalf("flap never fired (%v): the absorption self-test is vacuous", unfired)
					}
					if strings.Contains(logs(), "restarting every device from step") {
						t.Fatalf("flap consumed a restart instead of being absorbed; log:\n%s", logs())
					}
					if got := counters.Counter("link_faults_absorbed").Load(); got == 0 {
						t.Fatalf("no link fault recorded as absorbed; log:\n%s", logs())
					}
					wantRecoveries(t, counters, 0, logs)
					lossesBitIdentical(t, label, res, refRes[dpu])
					weightsBitIdentical(t, label, w, refs[dpu])
				})
			}
		}
	}
}

// TestRingFlapTransformerAbsorbed repeats the absorption guarantee on the
// transformer workbench: one activation flap and one all-reduce flap in
// the same run, three workers, zero restarts, bit-identical.
func TestRingFlapTransformerAbsorbed(t *testing.T) {
	leakCheck(t)
	cfg := distill.DefaultTransformerConfig()
	batches := transformerBatches(4, 8)
	p := hybridPlan()
	ref := distill.NewTransformerWorkbench(cfg)
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	inner := transport.NewLoopback()
	chaos := transport.NewChaos(inner,
		transport.Fault{Trigger: transport.Trigger{Conn: transport.AnyConn, Op: transport.OpRecv,
			Kind: wire.KindPeerInput, Step: 1, Count: 1}, Action: transport.ActFlap},
		transport.Fault{Trigger: transport.Trigger{Conn: transport.AnyConn, Op: transport.OpRecv,
			Kind: wire.KindRingSegment, Step: 2, Count: 1}, Action: transport.ActFlap},
	)
	counters := obs.NewMetrics()
	addrs := startWorkers(t, inner, 3, WorkerConfig{
		Sessions: 1, Rejoin: true, Dial: chaos, Metrics: counters})
	logf, logs := captureLog()
	w := distill.NewTransformerWorkbench(cfg)
	res, err := Run(inner, addrs, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9, Topology: "ring",
		Spec:  TransformerSpec(cfg),
		Retry: fastRetry(), Metrics: counters,
		JoinTimeout: 10 * time.Second, Logf: logf,
	})
	if err != nil {
		t.Fatalf("transformer ring run with flaps failed: %v\nlog:\n%s", err, logs())
	}
	if unfired := chaos.Unfired(); len(unfired) > 0 {
		t.Fatalf("flaps never fired (%v)", unfired)
	}
	if strings.Contains(logs(), "restarting every device from step") {
		t.Fatalf("flap consumed a restart; log:\n%s", logs())
	}
	if got := counters.Counter("link_faults_absorbed").Load(); got < 2 {
		t.Fatalf("absorbed %d link fault(s), want both flaps; log:\n%s", got, logs())
	}
	lossesBitIdentical(t, "transformer flaps", res, refRes)
	weightsBitIdentical(t, "transformer flaps", w, ref)
}

// TestRingPersistentPartitionDegradesToHubRelay: a peer activation edge is
// partitioned and never heals. The reconnect budget runs out, the worker
// reports the edge down, and — because every worker is still alive — the
// coordinator degrades exactly that edge to hub relay instead of consuming
// a restart (MaxRestarts is 0). The degraded run must still finish
// bit-identical to the in-process pipeline, on loopback and on TCP.
func TestRingPersistentPartitionDegradesToHubRelay(t *testing.T) {
	leakCheck(t)
	const steps = 5
	batches := tinyBatches(steps, 8)
	p := plan("tr-2dev", g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3}))
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	transports := map[string]func() transport.Network{
		"loopback": func() transport.Network { return transport.NewLoopback() },
		"tcp":      func() transport.Network { return transport.TCP{} },
	}
	for netName, mkNet := range transports {
		t.Run(netName, func(t *testing.T) {
			inner := mkNet()
			chaos := transport.NewChaos(inner, transport.Fault{
				Trigger: transport.Trigger{Conn: transport.AnyConn, Op: transport.OpRecv,
					Kind: wire.KindPeerInput, Step: 1, Count: 1},
				Action: transport.ActPartition, // Delay 0: never heals
			})
			counters := obs.NewMetrics()
			addrs := startWorkers(t, inner, 2, WorkerConfig{
				Sessions: 1, Rejoin: true, Dial: chaos, Metrics: counters})
			logf, logs := captureLog()
			w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
			res, err := Run(inner, addrs, w, batches, Config{
				Plan: p, DPU: true, LR: 0.05, Momentum: 0.9, Topology: "ring",
				Spec:  TinySpec(distill.DefaultTinyConfig()),
				Retry: shortRetry(), Metrics: counters,
				JoinTimeout: 10 * time.Second, Logf: logf,
			})
			if err != nil {
				t.Fatalf("ring run with persistent partition failed: %v\nlog:\n%s", err, logs())
			}
			if !strings.Contains(logs(), "degrading peer link") {
				t.Fatalf("persistent partition did not engage the degrade tier; log:\n%s", logs())
			}
			if strings.Contains(logs(), "restarting every device from step") {
				t.Fatalf("degrade consumed a restart; log:\n%s", logs())
			}
			if got := counters.Counter("degrades").Load(); got == 0 {
				t.Fatalf("degrades counter is zero; log:\n%s", logs())
			}
			lossesBitIdentical(t, netName+" degraded relay", res, refRes)
			weightsBitIdentical(t, netName+" degraded relay", w, ref)
		})
	}
}

// TestRingPersistentPartitionDegradesAllReduce partitions the ring-segment
// edge of a split group (tail-dp: devices 1 and 2 share the tail group on
// separate workers). The group keeps its ring — same segments, same
// ascending-rank fold, so the result stays bit-identical — and only the
// broken edge changes transport: its segments cross the coordinator in
// relay envelopes, no gradient ever reaches the hub's fold, and the healthy
// activation edges keep flowing peer-to-peer.
func TestRingPersistentPartitionDegradesAllReduce(t *testing.T) {
	leakCheck(t)
	batches := tinyBatches(5, 8)
	p := plan("tail-dp", g([]int{0}, []int{0, 1}), g([]int{1, 2}, []int{2, 3}))
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	inner := transport.NewLoopback()
	chaos := transport.NewChaos(inner, transport.Fault{
		Trigger: transport.Trigger{Conn: transport.AnyConn, Op: transport.OpRecv,
			Kind: wire.KindRingSegment, Step: 1, Count: 1},
		Action: transport.ActPartition, // never heals
	})
	counters := obs.NewMetrics()
	addrs := startWorkers(t, inner, 3, WorkerConfig{
		Sessions: 1, Rejoin: true, Dial: chaos, Metrics: counters})
	// A zero delay is a pure observer: whether each fired says which kinds
	// reached the coordinator.
	seen := func(kind wire.Kind) transport.Fault {
		return transport.Fault{Trigger: transport.Trigger{Conn: transport.AnyConn, Op: transport.OpRecv,
			Kind: kind, Step: transport.AnyStep, Count: 1}, Action: transport.ActDelay}
	}
	coordNet := transport.NewChaos(inner, seen(wire.KindGrads), seen(wire.KindRelay))
	logf, logs := captureLog()
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	res, err := Run(coordNet, addrs, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9, Topology: "ring",
		Spec:  TinySpec(distill.DefaultTinyConfig()),
		Retry: shortRetry(), Metrics: counters,
		JoinTimeout: 10 * time.Second, Logf: logf,
	})
	if err != nil {
		t.Fatalf("ring run with partitioned all-reduce edge failed: %v\nlog:\n%s", err, logs())
	}
	if unfired := coordNet.Unfired(); len(unfired) != 1 || unfired[0].Kind != wire.KindGrads {
		t.Fatalf("coordinator must have seen relay envelopes and no gradients; unseen kinds: %v", unfired)
	}
	if !strings.Contains(logs(), "degrading peer link") {
		t.Fatalf("partition did not engage the degrade tier; log:\n%s", logs())
	}
	if strings.Contains(logs(), "restarting every device from step") {
		t.Fatalf("degrade consumed a restart; log:\n%s", logs())
	}
	lossesBitIdentical(t, "degraded all-reduce", res, refRes)
	weightsBitIdentical(t, "degraded all-reduce", w, ref)
}
