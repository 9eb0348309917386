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
	events := &eventLog{}
	cfg := s.config()
	cfg.Topology, cfg.MaxRestarts, cfg.OnEvent = "ring", 2, events.add
	res, w, err := s.run(inner, []string{addrA, addrB}, cfg)
	if err != nil {
		t.Fatalf("ring fallback run failed: %v\nevents:\n%v", err, events)
	}
	allFired(t, chaos)
	if len(events.of(EventRestart)) == 0 {
		t.Fatalf("kill did not trigger a ring restart; events:\n%v", events)
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
	events := &eventLog{}
	cfg := s.config()
	cfg.Topology, cfg.RetryBudget, cfg.Metrics, cfg.OnEvent = "ring", shortRetry, counters, events.add
	res, w, err := s.run(coordNet, addrs, cfg)
	if err != nil {
		t.Fatalf("ring run with a persistent partition failed: %v\nevents:\n%v", err, events)
	}
	allFired(t, chaos)
	degrades := events.of(EventDegrade)
	if len(degrades) == 0 || counters.Counter("degrades").Load() != int64(len(degrades)) {
		t.Fatalf("persistent partition did not engage the degrade tier (counted %d); events:\n%v", counters.Counter("degrades").Load(), events)
	}
	if len(events.of(EventRestart)) > 0 {
		t.Fatalf("degrade consumed a restart; events:\n%v", events)
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

// shardLink is a later-group link fed by prev previous-group devices
// through in-memory inboxes.
func shardLink(prev int) *ringLink {
	l := &ringLink{dev: 9, prev: make([]int, prev), shards: make([]*tensor.Tensor, prev), peers: map[int]*endpoint{}}
	for i := range l.prev {
		l.prev[i] = i
		l.peers[i] = &endpoint{in: newInbox()}
	}
	return l
}

// recvShards delivers shards[i] from previous rank i for step and
// receives the step's input; a session failure comes back as the error.
func recvShards(l *ringLink, step int, shards ...*tensor.Tensor) (in *tensor.Tensor, err error) {
	defer recoverSession(&err)
	for i, t := range shards {
		l.peers[i].in.put(wire.EncodeTensor(wire.KindOutput, int32(i), int32(step), t))
	}
	return l.RecvInput(step), nil
}

// TestRecvInputDecodesShardsIntoPlace: a later group's input is its
// upstream shards in rank order, decoded into one buffer every step
// reuses; a lone shard is the batch, and unequal shards are reported
// instead of copied past.
func TestRecvInputDecodesShardsIntoPlace(t *testing.T) {
	a, b := tensor.New(2, 3), tensor.New(2, 3)
	a.Fill(1)
	b.Fill(2)
	l := shardLink(2)
	full, err := recvShards(l, 0, a, b)
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
	b.Fill(3)
	if next, err := recvShards(l, 1, a, b); err != nil || next != full || next.Data()[6] != 3 {
		t.Fatalf("step 1: %v, fresh buffer %v: want step 0's buffer holding step 1's shards", err, next != full)
	}
	if one, err := recvShards(shardLink(1), 0, a); err != nil || !one.Equal(a) {
		t.Fatalf("a lone shard is the batch: got %v, %v", one, err)
	}
	if _, err := recvShards(l, 2, a, tensor.New(1, 3)); err == nil || !strings.Contains(err.Error(), "shard sizes differ") {
		t.Fatalf("unequal shards: err = %v", err)
	}
}

// TestWarmInputStepsAllocateNoInput: once warm, a first-group device
// builds each step's batch and a later-group device decodes each step's
// shards into the link's one input buffer, allocating nothing: no worker
// holds more than one batch of input.
func TestWarmInputStepsAllocateNoInput(t *testing.T) {
	const runs = 20
	ds := wire.DataSpec{Seed: 3, N: 4 * 8, C: 3, H: 8, W: 8, Classes: 4, Batch: 8}
	first := &ringLink{data: ds}
	first.RecvInput(0)
	step := 0
	if n := testing.AllocsPerRun(runs, func() {
		step = (step + 1) % ds.Steps()
		first.RecvInput(step)
	}); n != 0 {
		t.Errorf("a warm first-group step allocates %v times", n)
	}

	later := shardLink(2)
	frames := make([][2]*wire.Frame, runs+2)
	for s := range frames {
		for i := range frames[s] {
			frames[s][i] = wire.EncodeTensor(wire.KindOutput, int32(i), int32(s), tensor.New(4, 6, 8, 8))
		}
	}
	recv := func(s int) {
		for i, f := range frames[s] {
			later.peers[i].in.put(f)
		}
		later.RecvInput(s)
	}
	recv(0)
	step = 0
	if n := testing.AllocsPerRun(runs, func() { step++; recv(step) }); n != 0 {
		t.Errorf("a warm later-group step allocates %v times", n)
	}
}
