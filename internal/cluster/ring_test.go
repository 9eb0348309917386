package cluster

import (
	"strings"
	"testing"
	"time"

	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/obs"
	"pipebd/internal/tensor"
)

// shortRetry is a RetryBudget the degrade suites wait out per broken edge.
const shortRetry = 250 * time.Millisecond

// TestRingRecoveryFallsBackToSurvivingWorker: when the worker process
// itself dies (listener closed, sessions killed) the restart attempt
// cannot re-join it; its devices must land on the surviving worker — the
// peer directory then points both pipeline stages at one address — and
// the run still finishes bit-identically.
func TestRingRecoveryFallsBackToSurvivingWorker(t *testing.T) {
	leakCheck(t)
	s := runSpec{plan: trPlan(), dpu: true, steps: 4, batch: 8}
	inner := transport.NewLoopback()
	// Kill the peer link carrying step 1's forwarded activation; worker B
	// exits after that failed session (no Rejoin), so the restart falls
	// back to worker A for both devices.
	chaos := transport.NewChaos(inner, recvFault(wire.KindOutput, 1, transport.ActKill))
	addrA := startWorkers(t, inner, 1, WorkerConfig{Rejoin: true, Dial: chaos})[0]
	addrB := startWorkers(t, inner, 1, WorkerConfig{Sessions: 1, Dial: chaos})[0]
	logf, logs := captureLog()
	cfg := s.config()
	cfg.Topology, cfg.MaxRestarts, cfg.Logf = "ring", 2, logf
	res, w, err := s.run(inner, []string{addrA, addrB}, cfg)
	if err != nil {
		t.Fatalf("ring fallback run failed: %v\nlog:\n%s", err, logs())
	}
	allFired(t, chaos)
	if !strings.Contains(logs(), "restarting every device from step") {
		t.Fatalf("kill did not trigger a ring restart; log:\n%s", logs())
	}
	s.check(t, res, w)
}

// TestRingRejectsMisconfiguration: a session with direct peer edges needs
// a dial network on the worker, and unknown topologies are rejected up
// front.
func TestRingRejectsMisconfiguration(t *testing.T) {
	s := runSpec{plan: hybridPlan(), dpu: true, steps: 2, batch: 8}
	cfg := s.config()
	cfg.Topology = "mesh"
	if _, _, err := s.run(transport.NewLoopback(), []string{"x"}, cfg); err == nil {
		t.Fatal("unknown topology accepted")
	}

	// Worker without a dial network: the session fails, the run errors.
	net := transport.NewLoopback()
	addrs := startWorkers(t, net, 1, WorkerConfig{Sessions: 1, Rejoin: true})
	cfg.Topology = "ring"
	if _, _, err := s.run(net, addrs, cfg); err == nil {
		t.Fatal("ring session without worker dial network succeeded")
	}
}

// degradeRun runs s over the ring on n workers whose peer links meet a
// partition that never heals (the coordinator dialing over coordNet), and
// checks that the partitioned edge degraded to relay — no restart spent —
// and the run stayed bit-identical.
func degradeRun(t *testing.T, s runSpec, inner, coordNet transport.Network, n int, partition transport.Fault) {
	t.Helper()
	chaos := transport.NewChaos(inner, partition)
	counters := obs.NewMetrics()
	addrs := startWorkers(t, inner, n, WorkerConfig{Sessions: 1, Rejoin: true, Dial: chaos, Metrics: counters})
	logf, logs := captureLog()
	cfg := s.config()
	cfg.Topology, cfg.RetryBudget, cfg.Metrics, cfg.Logf = "ring", shortRetry, counters, logf
	res, w, err := s.run(coordNet, addrs, cfg)
	if err != nil {
		t.Fatalf("ring run with a persistent partition failed: %v\nlog:\n%s", err, logs())
	}
	allFired(t, chaos)
	if !strings.Contains(logs(), "degrading peer link") || counters.Counter("degrades").Load() == 0 {
		t.Fatalf("persistent partition did not engage the degrade tier; log:\n%s", logs())
	}
	if strings.Contains(logs(), "restarting every device from step") {
		t.Fatalf("degrade consumed a restart; log:\n%s", logs())
	}
	s.check(t, res, w)
}

// TestRingPersistentPartitionDegradesToHubRelay: a peer activation edge is
// partitioned and never heals. The reconnect budget runs out, the worker
// reports the edge down, and — because every worker is still alive — the
// coordinator degrades exactly that edge to hub relay instead of consuming
// a restart (MaxRestarts is 0). The degraded run must still finish
// bit-identical to the in-process pipeline, on loopback and on TCP.
func TestRingPersistentPartitionDegradesToHubRelay(t *testing.T) {
	leakCheck(t)
	s := runSpec{plan: trPlan(), dpu: true, steps: 5, batch: 8}
	for netName, inner := range map[string]transport.Network{"loopback": transport.NewLoopback(), "tcp": transport.TCP{}} {
		t.Run(netName, func(t *testing.T) {
			degradeRun(t, s, inner, inner, 2, recvFault(wire.KindOutput, 1, transport.ActPartition))
		})
	}
}

// TestRingPersistentPartitionDegradesAllReduce partitions the ring-segment
// edge of a split group (tail-dp: devices 1 and 2 share the tail group on
// separate workers). The group keeps its ring — same segments, same
// ascending-rank fold, so the result stays bit-identical — and only the
// broken edge changes transport: its segments cross the coordinator in
// relay envelopes, and the healthy activation edges keep flowing
// peer-to-peer.
func TestRingPersistentPartitionDegradesAllReduce(t *testing.T) {
	leakCheck(t)
	s := runSpec{plan: plan("tail-dp", g([]int{0}, []int{0, 1}), g([]int{1, 2}, []int{2, 3})),
		dpu: true, steps: 5, batch: 8}
	inner := transport.NewLoopback()
	// A zero delay is a pure observer: whether it fired says relay
	// envelopes reached the coordinator.
	coordNet := transport.NewChaos(inner, recvFault(wire.KindRelay, transport.AnyStep, transport.ActDelay))
	degradeRun(t, s, inner, coordNet, 3, recvFault(wire.KindRingSegment, 1, transport.ActPartition))
	allFired(t, coordNet)
}

// TestAssembleShards: the downstream device's assembly concatenates in
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
