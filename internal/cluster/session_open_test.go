package cluster

import (
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
	"pipebd/internal/tensor"
)

// sendTap wraps a Network so a test sees every frame its dialing side —
// the coordinator — sends.
type sendTap struct {
	transport.Network
	mu     sync.Mutex
	frames []*wire.Frame
}

func (n *sendTap) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tap: n}, nil
}

type tapConn struct {
	transport.Conn
	tap *sendTap
}

func (c *tapConn) Send(f *wire.Frame) error {
	c.tap.mu.Lock()
	c.tap.frames = append(c.tap.frames, f)
	c.tap.mu.Unlock()
	return c.Conn.Send(f)
}

// inputTraffic splits the tapped KindInput frames by destination: frames
// and bytes addressed to devices of the plan's first group, and frames to
// any later group.
func (n *sendTap) inputTraffic(group0 []int) (g0Frames, g0Bytes, laterFrames int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, f := range n.frames {
		if f.Kind != wire.KindInput {
			continue
		}
		first := false
		for _, d := range group0 {
			first = first || int(f.Dev) == d
		}
		if first {
			g0Frames++
			g0Bytes += 16 + len(f.Payload)
		} else {
			laterFrames++
		}
	}
	return g0Frames, g0Bytes, laterFrames
}

// assigns returns the decoded session-open frames the coordinator sent.
func (n *sendTap) assigns(t *testing.T) []*wire.Assign {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []*wire.Assign
	for _, f := range n.frames {
		if f.Kind != wire.KindAssign {
			continue
		}
		a, err := wire.DecodeAssign(f)
		if err != nil {
			t.Fatalf("tapped assign does not decode: %v", err)
		}
		out = append(out, a)
	}
	return out
}

// TestHubInputRecipeReadLocally: a hub run handed Config.Data moves no
// batch over any connection — group-0 devices regenerate the schedule
// from the recipe, so the coordinator sends them no KindInput frame at all
// (at the parent commit it sent one per device per step: batch payload ×
// group-0 size every step) and the Assign carries no input tensors — while
// the hub still relays activations to the later group, and the run stays
// bit-identical to the in-process engine. A recipe that does not
// reproduce the run's batches is rejected under hub exactly as under ring.
func TestHubInputRecipeReadLocally(t *testing.T) {
	leakCheck(t)
	const steps, batch = 5, 8
	batches := tinyBatches(steps, batch)
	tiny := distill.DefaultTinyConfig()
	recipe := wire.DataSpec{Seed: 7, N: steps * batch, C: 3,
		H: tiny.Height, W: tiny.Width, Classes: 4, Batch: batch}
	p := hybridPlan()
	ref := distill.NewTinyWorkbench(tiny)
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	inner := transport.NewLoopback()
	addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 1})
	tap := &sendTap{Network: inner}
	w := distill.NewTinyWorkbench(tiny)
	res, err := Run(tap, addrs, w, batches, Config{Plan: p, DPU: true,
		LR: 0.05, Momentum: 0.9, Topology: "hub", Data: recipe, Spec: TinySpec(tiny)})
	if err != nil {
		t.Fatalf("hub data-recipe run: %v", err)
	}
	lossesBitIdentical(t, "hub data recipe", res, refRes)
	weightsBitIdentical(t, "hub data recipe", w, ref)

	g0Frames, g0Bytes, later := tap.inputTraffic(p.Groups[0].Devices)
	if g0Frames != 0 {
		t.Fatalf("coordinator fed group 0 %d input frames (%d bytes) despite the recipe", g0Frames, g0Bytes)
	}
	if later != steps {
		t.Fatalf("hub relayed %d activations to the later group, want one per step (%d)", later, steps)
	}
	for _, a := range tap.assigns(t) {
		if len(a.Inputs) != 0 {
			t.Fatalf("assign for devices %v carries %d input tensors despite the recipe", a.Devices, len(a.Inputs))
		}
	}

	bad := recipe
	bad.Seed = 8
	_, err = Run(transport.NewLoopback(), []string{"unused"}, distill.NewTinyWorkbench(tiny), batches,
		Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
			Topology: "hub", Data: bad, Spec: TinySpec(tiny)})
	if err == nil || !strings.Contains(err.Error(), "Config.Data") {
		t.Fatalf("bad recipe under hub: got %v, want the Config.Data validation error", err)
	}
}

// TestHubInputScheduleRidesInAssign: without a recipe a hub run trains
// from the schedule its session-open frame carries — the session hosting
// group 0 gets every step's batch once, the other session gets none, and
// no per-step input frame follows — bit-identical to engine.RunPipelined.
func TestHubInputScheduleRidesInAssign(t *testing.T) {
	leakCheck(t)
	const steps = 5
	batches := tinyBatches(steps, 8)
	p := hybridPlan()
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, LR: 0.05, Momentum: 0.9})

	inner := transport.NewLoopback()
	addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 1})
	tap := &sendTap{Network: inner}
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	res, err := Run(tap, addrs, w, batches, Config{Plan: p, LR: 0.05, Momentum: 0.9,
		Topology: "hub", Spec: TinySpec(distill.DefaultTinyConfig())})
	if err != nil {
		t.Fatalf("hub run without a recipe: %v", err)
	}
	lossesBitIdentical(t, "hub schedule in assign", res, refRes)
	weightsBitIdentical(t, "hub schedule in assign", w, ref)

	if g0Frames, _, _ := tap.inputTraffic(p.Groups[0].Devices); g0Frames != 0 {
		t.Fatalf("coordinator still sent group 0 %d per-step input frames", g0Frames)
	}
	assigns := tap.assigns(t)
	if len(assigns) != 2 {
		t.Fatalf("tapped %d assigns, want 2", len(assigns))
	}
	for _, a := range assigns {
		want := 0
		if a.Devices[0] == 0 { // PlaceDevices: worker 0 hosts devices 0,1 — all of group 0
			want = steps
		}
		if len(a.Inputs) != want {
			t.Fatalf("assign for devices %v carries %d inputs, want %d", a.Devices, len(a.Inputs), want)
		}
		if len(a.States) != 0 {
			t.Fatalf("a fresh run's assign carries %d restart states", len(a.States))
		}
	}
}

// TestHubInputShortScheduleRefused: a session asked to run more steps
// than its Assign carries batches for is refused at session start, before
// any device loop runs — under hub as under ring.
func TestHubInputShortScheduleRefused(t *testing.T) {
	leakCheck(t)
	net := transport.NewLoopback()
	lis, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	logf, logs := captureLog()
	metrics := obs.NewMetrics()
	worker := NewWorker(lis, WorkerConfig{Sessions: 1, Logf: logf, Metrics: metrics})
	served := make(chan error, 1)
	go func() { served <- worker.Serve() }()

	tiny := distill.DefaultTinyConfig()
	batches := tinyBatches(3, 8)
	conn, err := net.Dial(worker.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if hello, err := conn.Recv(); err != nil || hello.Kind != wire.KindHello {
		t.Fatalf("handshake: %v, %v", hello, err)
	}
	short := &wire.Assign{
		Plan: plan("tr-2dev", g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3})),
		Spec: TinySpec(tiny),
		Run:  wire.RunConfig{DPU: true, LR: 0.05, Steps: len(batches), Topology: "hub"},
		// One batch for three steps.
		Devices: []int{0, 1}, Snapshot: CaptureSnapshot(distill.NewTinyWorkbench(tiny)),
		Inputs: []*tensor.Tensor{batches[0].X},
	}
	if err := conn.Send(wire.EncodeAssign(short)); err != nil {
		t.Fatal(err)
	}
	// Sessions: 1 without Rejoin: the refused session spends the budget,
	// so Serve returns once the refusal is logged.
	if err := <-served; err != nil {
		t.Fatalf("worker serve: %v", err)
	}
	if !strings.Contains(logs(), "session has 1 input batches for 3 steps") {
		t.Fatalf("short schedule was not refused at session start; log:\n%s", logs())
	}
	if n := metrics.Counter("device_steps").Load(); n != 0 {
		t.Fatalf("refused session still ran %d device steps", n)
	}
}

// TestProbeSpendsNoSessionSlot: a connection that closes right after the
// worker's Hello — the degrade tier's liveness probe, a health check, a
// port scan — never sent an Assign, so it is not a session: a worker with
// a one-session budget and no Rejoin still serves the real session that
// follows, and only then does Serve return.
func TestProbeSpendsNoSessionSlot(t *testing.T) {
	leakCheck(t)
	net := transport.NewLoopback()
	lis, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	worker := NewWorker(lis, WorkerConfig{Sessions: 1})
	served := make(chan error, 1)
	go func() { served <- worker.Serve() }()

	probe, err := net.Dial(worker.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if hello, err := probe.Recv(); err != nil || hello.Kind != wire.KindHello {
		t.Fatalf("probe handshake: %v, %v", hello, err)
	}
	probe.Close()
	select {
	case err := <-served:
		t.Fatalf("the probe spent the worker's only session slot (Serve returned %v)", err)
	case <-time.After(100 * time.Millisecond):
	}

	batches := tinyBatches(3, 8)
	p := plan("one-dev", g([]int{0}, []int{0, 1, 2, 3}))
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	res, err := Run(net, []string{worker.Addr()}, w, batches, Config{Plan: p, DPU: true,
		LR: 0.05, Momentum: 0.9, Spec: TinySpec(distill.DefaultTinyConfig())})
	if err != nil {
		t.Fatalf("session after the probe: %v", err)
	}
	lossesBitIdentical(t, "after probe", res, refRes)
	weightsBitIdentical(t, "after probe", w, ref)
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("worker serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the one real session")
	}
}

// dialMiss wraps a Network and reports every failed Dial.
type dialMiss struct {
	transport.Network
	miss func(addr string)
}

func (n dialMiss) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		n.miss(addr)
	}
	return c, err
}

// TestPlacementFreshRunWaitsForOwnWorker: attempt zero goes through the
// same placement loop as every restart, but a fresh run's slot may only
// land on its own worker. Worker B serves before the run starts; worker A
// comes up only after the coordinator's first dial of A has failed. With
// a fallback candidate list slot 0 would land on B beside slot 1 and A
// would wait on its session budget forever; instead both workers serve
// exactly one session.
func TestPlacementFreshRunWaitsForOwnWorker(t *testing.T) {
	leakCheck(t)
	inner := transport.NewLoopback()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var workers []*Worker
	serve := func(addr string, m *obs.Metrics) {
		lis, err := inner.Listen(addr)
		if err != nil {
			t.Errorf("worker %s listen: %v", addr, err)
			return
		}
		wk := NewWorker(lis, WorkerConfig{Sessions: 1, Metrics: m})
		mu.Lock()
		workers = append(workers, wk)
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := wk.Serve(); err != nil {
				t.Errorf("worker %s serve: %v", addr, err)
			}
		}()
	}
	metricsA, metricsB := obs.NewMetrics(), obs.NewMetrics()
	serve("worker-b", metricsB)
	missedA := make(chan struct{})
	var once sync.Once
	net := dialMiss{Network: inner, miss: func(addr string) {
		if addr == "worker-a" {
			once.Do(func() { close(missedA) })
		}
	}}
	started := make(chan struct{})
	go func() {
		defer close(started)
		<-missedA
		serve("worker-a", metricsA)
	}()

	batches := tinyBatches(3, 8)
	p := plan("tr-2dev", g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3}))
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	res, err := Run(net, []string{"worker-a", "worker-b"}, w, batches, Config{Plan: p, DPU: true,
		LR: 0.05, Momentum: 0.9, Spec: TinySpec(distill.DefaultTinyConfig())})
	<-started
	// Close before waiting: a worker the placement skipped would otherwise
	// wait on its session budget and hang the test instead of failing it.
	mu.Lock()
	for _, wk := range workers {
		wk.Close()
	}
	mu.Unlock()
	wg.Wait()
	if err != nil {
		t.Fatalf("run with a late worker: %v", err)
	}
	lossesBitIdentical(t, "late worker", res, refRes)
	weightsBitIdentical(t, "late worker", w, ref)
	if a, b := metricsA.Counter("sessions_started").Load(), metricsB.Counter("sessions_started").Load(); a != 1 || b != 1 {
		t.Fatalf("sessions started: worker A %d, worker B %d — want 1 and 1 (a slot landed on another slot's worker)", a, b)
	}
}

// TestNonRank0SnapshotIsProtocolError: only rank 0 of a group snapshots,
// so a snapshot frame from a replica — or such a record in a ledger — is
// a protocol error, not a duplicate to fold away; rank 0's own is accepted.
func TestNonRank0SnapshotIsProtocolError(t *testing.T) {
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	c := NewCoordinator(transport.NewLoopback(), Config{Plan: hybridPlan(), DPU: true,
		LR: 0.05, Spec: TinySpec(distill.DefaultTinyConfig()), MaxRestarts: 1})
	r, err := c.newRun(w, CaptureSnapshot(w), tinyBatches(2, 8), []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	params := r.groupParams[0] // hybridPlan: devices 0 and 1 both train group 0
	vels := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		vels[i] = tensor.New(p.Shape()...)
	}
	peer := &peerConn{addr: "x"}
	if err := r.handle(peer, wire.EncodeDeviceSnapshot(0, 0, params, vels)); err != nil {
		t.Fatalf("rank-0 snapshot rejected: %v", err)
	}
	err = r.handle(peer, wire.EncodeDeviceSnapshot(1, 0, params, vels))
	if err == nil || !strings.Contains(err.Error(), "only rank 0 snapshots") {
		t.Fatalf("rank-1 snapshot frame: got %v, want a protocol error", err)
	}
	err = r.replayRecords([]*ledger.Record{ledger.DevSnapshot(1, 0, params, vels)})
	if err == nil || !strings.Contains(err.Error(), "only rank 0 snapshots") {
		t.Fatalf("rank-1 snapshot record: got %v, want a replay error", err)
	}
}
