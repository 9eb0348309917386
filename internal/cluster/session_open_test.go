package cluster

import (
	"runtime"
	"slices"
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
	"pipebd/internal/testutil"
)

// TestHubInputRecipeReadLocally: a hub run moves no batch over any
// connection — group-0 devices regenerate the schedule from Config.Data,
// so the coordinator forwards them no activation at all — while the hub
// relays each upstream member's activation shard to the later group, and
// the run stays bit-identical to the in-process engine. A recipe that does not
// reproduce the run's batches is rejected under hub exactly as under ring.
func TestHubInputRecipeReadLocally(t *testing.T) {
	leakCheck(t)
	const steps = 5
	s := runSpec{plan: hybridPlan(), dpu: true, steps: steps, batch: 8}
	p, recipe := s.plan, s.data()
	inner := transport.NewLoopback()
	addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 1})
	tap := &tap{Network: inner}
	cfg := s.config()
	cfg.Topology = "hub"
	res, w, err := s.run(tap, addrs, cfg)
	if err != nil {
		t.Fatalf("hub data-recipe run: %v", err)
	}
	s.check(t, res, w)

	g0, later := 0, 0
	for _, f := range tap.peer() {
		if !f.recv && f.kind == wire.KindOutput && slices.Contains(p.Groups[0].Devices, f.to) {
			g0++
		} else if !f.recv && f.kind == wire.KindOutput {
			later++
		}
	}
	if g0 != 0 {
		t.Fatalf("coordinator fed group 0 %d activation frames despite the recipe", g0)
	}
	if want := steps * p.Groups[0].Split(); later != want {
		t.Fatalf("hub relayed %d activations to the later group, want one per upstream member and step (%d)", later, want)
	}
	assigns := tap.sent(wire.KindAssign)
	if len(assigns) != 2 {
		t.Fatalf("tapped %d assigns, want 2", len(assigns))
	}
	for _, f := range assigns {
		if a, err := wire.DecodeAssign(f); err != nil || a.Run.Data != recipe {
			t.Fatalf("tapped assign (%v) does not name the run's recipe", err)
		}
	}

	cfg.Data.Seed = 8
	_, _, err = s.run(transport.NewLoopback(), []string{"unused"}, cfg)
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
	s := runSpec{plan: hybridPlan(), dpu: true, steps: 2, batch: 8}
	cfg := s.config()
	cfg.Data = wire.DataSpec{}
	_, _, err := s.run(net, addrs, cfg)
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
	logf, logs := captureLog()
	metrics := obs.NewMetrics()
	worker, served := serveWorker(t, net, WorkerConfig{Sessions: 2, Logf: logf, Metrics: metrics})

	s := runSpec{plan: trPlan(), dpu: true, steps: 3, batch: 8}
	malformed := s.data()
	malformed.Classes = 0
	short := s.data()
	short.N = s.batch // one batch for three steps
	cases := []struct {
		data wire.DataSpec
		want string
	}{
		{short, "recipe yields 1 batches for 3 steps"},
		{malformed, "assign data recipe: wire: data recipe batch 8 and classes 0 must be positive"},
	}
	for _, tc := range cases {
		conn, err := net.Dial(worker.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if hello, err := conn.Recv(); err != nil || hello.Kind != wire.KindHello {
			t.Fatalf("handshake: %v, %v", hello, err)
		}
		refused := &wire.Assign{
			Plan:    s.plan,
			Spec:    s.modelSpec(),
			Run:     wire.RunConfig{DPU: true, LR: 0.05, Steps: 3, Topology: "hub", Data: tc.data},
			Devices: []int{0, 1}, Snapshot: CaptureSnapshot(s.workbench()),
		}
		if err := conn.Send(wire.EncodeAssign(refused)); err != nil {
			t.Fatal(err)
		}
		// The worker closes the refused session's connection.
		if f, err := conn.Recv(); err == nil {
			t.Fatalf("refused session sent %v", f.Kind)
		}
		conn.Close()
	}
	// Sessions: 2 without Rejoin: the refused sessions spend the budget,
	// so Serve returns once both refusals are logged. (The worker may
	// close a refused connection before it logs why, so the log is read
	// only then.)
	if err := <-served; err != nil {
		t.Fatalf("worker serve: %v", err)
	}
	for _, tc := range cases {
		if !strings.Contains(logs(), tc.want) {
			t.Fatalf("recipe %+v was not refused at session start; log:\n%s", tc.data, logs())
		}
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
	worker, served := serveWorker(t, net, WorkerConfig{Sessions: 1})

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

	s := runSpec{plan: plan("one-dev", g([]int{0}, []int{0, 1, 2, 3})), dpu: true, steps: 3, batch: 8}
	res, w, err := s.run(net, []string{worker.Addr()}, s.config())
	if err != nil {
		t.Fatalf("session after the probe: %v", err)
	}
	s.check(t, res, w)
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

	s := runSpec{plan: trPlan(), dpu: true, steps: 3, batch: 8}
	res, w, err := s.run(net, []string{"worker-a", "worker-b"}, s.config())
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
	s.check(t, res, w)
	if a, b := metricsA.Counter("sessions_started").Load(), metricsB.Counter("sessions_started").Load(); a != 1 || b != 1 {
		t.Fatalf("sessions started: worker A %d, worker B %d — want 1 and 1 (a slot landed on another slot's worker)", a, b)
	}
}

// placedCore builds attempt zero's core of a steps-long run under cfg and
// places it on one session, "x", hosting every device of hybridPlan.
func placedCore(t *testing.T, cfg Config, steps int) (*driver, *attemptCore, wire.Snapshot) {
	t.Helper()
	s := runSpec{plan: hybridPlan(), steps: steps, batch: 8}
	w := s.workbench()
	seed := CaptureSnapshot(w)
	base := s.config()
	cfg.Plan, cfg.LR, cfg.Spec, cfg.Data = base.Plan, base.LR, base.Spec, base.Data
	d, err := NewCoordinator(transport.NewLoopback(), cfg).newDriver(w, seed, steps, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	core := d.newRun(0).core
	core.place(0, []session{{addr: "x", devices: []int{0, 1, 2}}}, nil)
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
	params := seed.Student[:2]
	vels := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		vels[i] = tensor.New(p.Shape()...)
	}
	effs := core.step(frameEvent(0, 0, wire.EncodeDeviceSnapshot(0, 0, params, vels)))
	if len(effs) != 1 || effs[0].kind != efRecord || effs[0].rec.Type != ledger.TypeDevSnapshot {
		t.Fatalf("rank-0 snapshot: got effects %+v, want its record", effs)
	}
	err := failure(core.step(frameEvent(0, 0, wire.EncodeDeviceSnapshot(1, 0, params, vels))))
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
		err := failure(core.step(frameEvent(0, 0, wire.Control(wire.KindStepDone, 0, step))))
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
	params := seed.Student[2:]
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

// TestSupersededSessionStopsWaitingForPeers: a session whose control link
// closes while it still waits for a peer to dial in — an attempt the
// coordinator superseded before every worker took its Assign — ends at
// once instead of waiting out meshTimeout, and Serve returns. The
// worker's clock never moves, so no deadline can end the wait for it.
func TestSupersededSessionStopsWaitingForPeers(t *testing.T) {
	leakCheck(t)
	net := transport.NewLoopback()
	net.Clock = &testutil.ManualClock{}
	logf, logs := captureLog()
	worker, served := serveWorker(t, net, WorkerConfig{Sessions: 1, Dial: net, Logf: logf})
	conn, err := net.Dial(worker.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if hello, err := conn.Recv(); err != nil || hello.Kind != wire.KindHello {
		t.Fatalf("handshake: %v, %v", hello, err)
	}
	// Device 0 waits for device 1 to dial in; device 1's Assign never
	// leaves the coordinator.
	s := runSpec{plan: trPlan(), dpu: true, steps: 3, batch: 8}
	assign := &wire.Assign{Epoch: 1, Plan: s.plan, Spec: s.modelSpec(),
		Run:     wire.RunConfig{DPU: true, LR: 0.05, Steps: s.steps, Topology: "ring", Data: s.data()},
		Devices: []int{0}, Peers: []string{worker.Addr(), "never-assigned"}, Snapshot: CaptureSnapshot(s.workbench())}
	if err := conn.Send(wire.EncodeAssign(assign)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("worker serve: %v", err)
		}
	case <-time.After(10 * time.Second): // of wall time, a hang guard
		t.Fatalf("the session still waited for its peer after its control link closed; log:\n%s", logs())
	}
	if !strings.Contains(logs(), "session failed while peer links") {
		t.Fatalf("the session did not fail on its lost control link; log:\n%s", logs())
	}
}

// TestPlacementFindsALateWorker: a worker that starts listening at 6 s of
// the 10 s JoinTimeout is placed by the coordinator's next dial, at
// 6.02 s (its backoff stops growing at 50 ms), and the run completes with
// the clock not moved again.
func TestPlacementFindsALateWorker(t *testing.T) {
	leakCheck(t)
	s := runSpec{plan: trPlan(), dpu: true, steps: 3, batch: 8}
	net, clock := transport.NewLoopback(), &testutil.ManualClock{}
	net.Clock = clock
	type outcome struct {
		res engine.Result
		w   *distill.Workbench
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, w, err := s.run(net, []string{"late-worker"}, s.config())
		done <- outcome{res, w, err}
	}()
	for clock.Now() < int64(6*time.Second) {
		clock.WaitArmed(t, 1) // the placement's next dial
		clock.Advance(10 * time.Millisecond)
	}
	lis, err := net.Listen("late-worker")
	if err != nil {
		t.Fatalf("worker listen: %v", err)
	}
	w := NewWorker(lis, WorkerConfig{Sessions: 1})
	served := make(chan error, 1)
	go func() { served <- w.Serve() }()
	clock.WaitArmed(t, 1)
	clock.Advance(20 * time.Millisecond)
	out := testutil.Await(t, done, "run placed on the late worker")
	if out.err != nil {
		t.Fatalf("run failed: %v", out.err)
	}
	if err := testutil.Await(t, served, "worker's return after its session"); err != nil {
		t.Fatalf("worker serve: %v", err)
	}
	if now := time.Duration(clock.Now()); now != 6020*time.Millisecond {
		t.Fatalf("the run ended at %v on the clock, want 6.02s", now)
	}
	s.check(t, out.res, out.w)
}

// TestRouterReadsToTheCloseAfterDrain: after a Drain, and after a
// Repartition, the worker's router reads on until the coordinator closes
// the control link, and only then returns — nil after a Drain, the
// supersession error after a Repartition, which it has failed the
// session's devices with first — so the link's reading side ends on an
// error, which is what hands a TCP connection's read buffer back to its
// cache.
func TestRouterReadsToTheCloseAfterDrain(t *testing.T) {
	for _, ending := range []*wire.Frame{
		wire.Control(wire.KindDrain, wire.NoDev, wire.NoStep),
		wire.EncodeRepartition(3, hybridPlan()),
	} {
		net := transport.NewLoopback()
		lis, err := net.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		coord, err := net.Dial(lis.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn, err := lis.Accept()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []*wire.Frame{ending, wire.Control(wire.KindHeartbeat, wire.NoDev, wire.NoStep)} {
			if err := coord.Send(f); err != nil {
				t.Fatal(err)
			}
		}
		coord.Close()
		var failed error
		err = route(&endpoint{conn: conn}, nil, nil, func(err error) { failed = err })
		if ending.Kind == wire.KindDrain && (err != nil || failed != nil) {
			t.Fatalf("a drained session's router returned %v and failed its devices with %v", err, failed)
		}
		if ending.Kind == wire.KindRepartition && (err == nil || failed != err) {
			t.Fatalf("a superseded session's router returned %v and failed its devices with %v", err, failed)
		}
		if f, err := conn.Recv(); err == nil {
			t.Fatalf("after a %v the router returned with a %v frame unread", ending.Kind, f.Kind)
		}
		lis.Close()
	}
}

// TestLivenessProbeHandsBackItsReadBuffer: a warm liveness probe over TCP
// — dial, the worker's hello, close — reads its closed connection to the
// error, which hands the connection's 64 KiB read buffer back to the
// transport's cache, so a warm probe allocates less than one.
func TestLivenessProbeHandsBackItsReadBuffer(t *testing.T) {
	lis, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The worker's end of each probe: a hello, then a read to the close,
	// as a worker's handshake does; served reports the end of its reading
	// side, so the next probe finds its buffer back in the cache too.
	served := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			if err := conn.Send(wire.Control(wire.KindHello, wire.NoDev, wire.NoStep)); err != nil {
				t.Error(err)
			}
			recvToError(conn)
			conn.Close()
			served <- struct{}{}
		}
	}()
	defer func() {
		lis.Close()
		wg.Wait()
	}()
	c := NewCoordinator(transport.TCP{}, Config{})
	probe := func() {
		if !c.workersAlive([]string{lis.Addr()}) {
			t.Fatal("the liveness probe found its worker dead")
		}
		<-served
	}
	probe()
	runtime.GC()
	const probes = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range probes {
		probe()
	}
	runtime.ReadMemStats(&after)
	if perProbe := (after.TotalAlloc - before.TotalAlloc) / probes; perProbe >= 1<<16 {
		t.Errorf("a warm liveness probe allocates %d bytes, a read buffer's worth", perProbe)
	}
}
