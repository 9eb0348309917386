package cluster

import (
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

// activationTraffic splits the activations the coordinator forwarded —
// KindOutput frames inside relay envelopes — by destination: frames and
// bytes addressed to devices of the plan's first group, and frames to any
// later group.
func (n *sendTap) activationTraffic(t *testing.T, group0 []int) (g0Frames, g0Bytes, laterFrames int) {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, f := range n.frames {
		if f.Kind != wire.KindRelay {
			continue
		}
		inner, err := wire.DecodeRelay(f)
		if err != nil {
			t.Fatalf("tapped relay envelope does not decode: %v", err)
		}
		if inner.Kind != wire.KindOutput {
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

// TestHubInputRecipeReadLocally: a hub run moves no batch over any
// connection — group-0 devices regenerate the schedule from Config.Data,
// so the coordinator forwards them no activation at all — while the hub
// relays each upstream member's activation shard to the later group, and
// the run stays bit-identical to the in-process engine. A recipe that does not
// reproduce the run's batches is rejected under hub exactly as under ring.
func TestHubInputRecipeReadLocally(t *testing.T) {
	leakCheck(t)
	const steps, batch = 5, 8
	batches := tinyBatches(steps, batch)
	tiny := distill.DefaultTinyConfig()
	recipe := tinyData(steps, batch)
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

	g0Frames, g0Bytes, later := tap.activationTraffic(t, p.Groups[0].Devices)
	if g0Frames != 0 {
		t.Fatalf("coordinator fed group 0 %d activation frames (%d bytes) despite the recipe", g0Frames, g0Bytes)
	}
	if want := steps * p.Groups[0].Split(); later != want {
		t.Fatalf("hub relayed %d activations to the later group, want one per upstream member and step (%d)", later, want)
	}
	if assigns := tap.assigns(t); len(assigns) != 2 || assigns[0].Run.Data != recipe {
		t.Fatalf("tapped %d assigns, want 2 naming the run's recipe", len(assigns))
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

// dialCounter counts the dials made through a Network.
type dialCounter struct {
	transport.Network
	dials atomic.Int32
}

func (n *dialCounter) Dial(addr string) (transport.Conn, error) {
	n.dials.Add(1)
	return n.Network.Dial(addr)
}

// TestRunRequiresDataRecipe: the recipe is the only way a run's batches
// reach its workers, so a Config without one fails with an error naming
// Config.Data before a single worker is dialed.
func TestRunRequiresDataRecipe(t *testing.T) {
	net := &dialCounter{Network: transport.NewLoopback()}
	addrs := startWorkers(t, net.Network, 2, WorkerConfig{Sessions: 1})
	_, err := Run(net, addrs, distill.NewTinyWorkbench(distill.DefaultTinyConfig()), tinyBatches(2, 8),
		Config{Plan: hybridPlan(), DPU: true, LR: 0.05, Spec: TinySpec(distill.DefaultTinyConfig())})
	if err == nil || !strings.Contains(err.Error(), "Config.Data is required") {
		t.Fatalf("run without a recipe: got %v, want an error naming Config.Data", err)
	}
	if n := net.dials.Load(); n != 0 {
		t.Fatalf("run without a recipe dialed %d time(s) before failing", n)
	}
}

// TestHubInputShortScheduleRefused: a session whose Assign names a data
// recipe too short for its steps, or one no generator can evaluate, is
// refused at session start, before any device loop runs — an error the
// worker logs and survives, never a panic that ends its process.
func TestHubInputShortScheduleRefused(t *testing.T) {
	leakCheck(t)
	net := transport.NewLoopback()
	lis, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	logf, logs := captureLog()
	metrics := obs.NewMetrics()
	worker := NewWorker(lis, WorkerConfig{Sessions: 2, Logf: logf, Metrics: metrics})
	served := make(chan error, 1)
	go func() { served <- worker.Serve() }()

	tiny := distill.DefaultTinyConfig()
	malformed := tinyData(3, 8)
	malformed.Classes = 0
	for _, tc := range []struct {
		data wire.DataSpec
		want string
	}{
		{tinyData(1, 8), "recipe yields 1 batches for 3 steps"}, // one batch for three steps
		{malformed, "assign data recipe: wire: data recipe batch 8 and classes 0 must be positive"},
	} {
		conn, err := net.Dial(worker.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if hello, err := conn.Recv(); err != nil || hello.Kind != wire.KindHello {
			t.Fatalf("handshake: %v, %v", hello, err)
		}
		refused := &wire.Assign{
			Plan:    plan("tr-2dev", g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3})),
			Spec:    TinySpec(tiny),
			Run:     wire.RunConfig{DPU: true, LR: 0.05, Steps: 3, Topology: "hub", Data: tc.data},
			Devices: []int{0, 1}, Snapshot: CaptureSnapshot(distill.NewTinyWorkbench(tiny)),
		}
		if err := conn.Send(wire.EncodeAssign(refused)); err != nil {
			t.Fatal(err)
		}
		// The worker closes the refused session's connection.
		if f, err := conn.Recv(); err == nil {
			t.Fatalf("refused session sent %v", f.Kind)
		}
		conn.Close()
		if !strings.Contains(logs(), tc.want) {
			t.Fatalf("recipe %+v was not refused at session start; log:\n%s", tc.data, logs())
		}
	}
	// Sessions: 2 without Rejoin: the refused sessions spend the budget,
	// so Serve returns once both refusals are logged.
	if err := <-served; err != nil {
		t.Fatalf("worker serve: %v", err)
	}
	if n := metrics.Counter("device_steps").Load(); n != 0 {
		t.Fatalf("refused sessions still ran %d device steps", n)
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
		LR: 0.05, Momentum: 0.9, Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(3, 8)})
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
		LR: 0.05, Momentum: 0.9, Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(3, 8)})
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

// placedCore builds attempt zero's core of a steps-long run under cfg and
// places it on one session, "x", hosting every device of hybridPlan.
func placedCore(t *testing.T, cfg Config, steps int) (*driver, *attemptCore, wire.Snapshot) {
	t.Helper()
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	seed := CaptureSnapshot(w)
	cfg.Plan, cfg.LR, cfg.Spec, cfg.Data = hybridPlan(), 0.05, TinySpec(distill.DefaultTinyConfig()), tinyData(steps, 8)
	d, err := NewCoordinator(transport.NewLoopback(), cfg).newDriver(w, seed, steps, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	core := d.newRun(0).core
	core.place(time.Time{}, []session{{addr: "x", devices: []int{0, 1, 2}}}, nil)
	return d, core, seed
}

// failure is the error effs fail the attempt with, or nil.
func failure(effs []effect) error {
	for _, e := range effs {
		if e.kind == efFail {
			return e.err
		}
	}
	return nil
}

// TestNonRank0SnapshotIsProtocolError: only rank 0 of a group snapshots,
// so a snapshot frame from a replica — or such a record applied to the
// run's account, as a resume replays it — is a protocol error, not a
// duplicate to fold away; rank 0's own is accepted.
func TestNonRank0SnapshotIsProtocolError(t *testing.T) {
	// hybridPlan: devices 0 and 1 both train group 0, blocks 0 and 1.
	d, core, seed := placedCore(t, Config{DPU: true, MaxRestarts: 1}, 2)
	params := append(append([]*tensor.Tensor(nil), seed.Student[0]...), seed.Student[1]...)
	vels := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		vels[i] = tensor.New(p.Shape()...)
	}
	effs := core.step(frameEvent(0, time.Time{}, wire.EncodeDeviceSnapshot(0, 0, params, vels)))
	if len(effs) != 1 || effs[0].kind != efRecord || effs[0].rec.Type != ledger.TypeDevSnapshot {
		t.Fatalf("rank-0 snapshot: got effects %+v, want its record", effs)
	}
	err := failure(core.step(frameEvent(0, time.Time{}, wire.EncodeDeviceSnapshot(1, 0, params, vels))))
	if err == nil || !strings.Contains(err.Error(), "only rank 0 snapshots") {
		t.Fatalf("rank-1 snapshot frame: got %v, want a protocol error", err)
	}
	err = d.acct.Apply(ledger.DevSnapshot(1, 0, params, vels))
	if err == nil || !strings.Contains(err.Error(), "only rank 0 snapshots") {
		t.Fatalf("rank-1 snapshot record: got %v, want a replay error", err)
	}
}

// TestStepsOutsideTheRunAreRefused: a barrier arrival, like every record
// the account applies, names a step in [0, steps). A StepDone past the
// last step is a protocol error that leaves no barrier count behind, and
// a snapshot, barrier or loss record outside the run is refused.
func TestStepsOutsideTheRunAreRefused(t *testing.T) {
	for _, step := range []int32{2, 1 << 20} {
		d, core, _ := placedCore(t, Config{MaxRestarts: 1}, 2)
		err := failure(core.step(frameEvent(0, time.Time{}, wire.Control(wire.KindStepDone, 0, step))))
		if err == nil || !strings.Contains(err.Error(), "outside the run's 2 steps") {
			t.Fatalf("step-done for step %d of 2: got %v, want a range error", step, err)
		}
		if len(core.barrier) != 0 {
			t.Fatalf("refused arrivals left barrier counts %v", core.barrier)
		}
		if d.acct.Cut() != -1 {
			t.Fatalf("a refused arrival moved the cut to %d", d.acct.Cut())
		}
	}
	d, _, seed := placedCore(t, Config{MaxRestarts: 1}, 2)
	// hybridPlan: device 2 is rank 0 of group 1, blocks 2 and 3.
	params := append(append([]*tensor.Tensor(nil), seed.Student[2]...), seed.Student[3]...)
	for _, rec := range []*ledger.Record{
		ledger.DevSnapshot(2, 99, params, params),
		ledger.Barrier(-7),
		ledger.Losses(2, 2, []float64{1, 2}),
	} {
		if err := d.acct.Apply(rec); err == nil || !strings.Contains(err.Error(), "outside the run's 2 steps") {
			t.Fatalf("%v record at step %d: got %v, want a range error", rec.Type, rec.Step, err)
		}
	}
}
