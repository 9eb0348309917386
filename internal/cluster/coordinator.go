package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pipebd/internal/cluster/ledger"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

// SnapshotPolicy is the cluster-facing alias of the wire-level snapshot
// policy: interval-k snapshots from each group's rank-0 device.
type SnapshotPolicy = wire.SnapshotPolicy

// Config parameterizes a cluster run.
type Config struct {
	// Plan distributes blocks over devices exactly as in engine.Config.
	Plan sched.Plan
	// DPU enables decoupled parameter update; without it the coordinator
	// runs a global per-step barrier across all devices.
	DPU bool
	// LR and Momentum configure each block's SGD optimizer.
	LR, Momentum float32
	// Backend optionally names the tensor backend workers should use
	// (bit-identical by contract, so purely a throughput knob).
	Backend string
	// Topology selects the session's data plane: "hub" (or empty) routes
	// every activation and gradient through the coordinator; "ring" has
	// the workers dial each other and exchange activations and gradient
	// reductions peer-to-peer, demoting the coordinator to a control
	// plane (placement, barriers, losses, snapshots). Under both, the
	// first group reads its batches locally — no per-step input frame
	// exists — and both are bit-identical to the in-process engine.
	Topology string
	// Data optionally hands the workers a deterministic recipe for the
	// run's batch schedule (wire.DataSpec; N > 0 enables it). Sessions
	// hosting first-group devices then regenerate their inputs locally —
	// distributed data loading — and the coordinator's connections see
	// zero input bytes. The coordinator validates at run start that the
	// recipe reproduces the batches passed to Run bit-exactly, keeping the
	// bit-identity contract checkable. Without a recipe those sessions'
	// Assign carries the whole schedule in one frame, bounded by
	// wire.MaxPayload; pass Data for anything larger.
	Data wire.DataSpec
	// Spec names the model the workers rebuild. Its architecture must
	// match the workbench passed to Run.
	Spec wire.ModelSpec
	// JoinTimeout bounds how long the coordinator waits for each worker
	// to come up (and, on a restart, how long each placement slot may
	// search for a live worker); <= 0 means 10 seconds.
	JoinTimeout time.Duration
	// MaxRestarts bounds how many lost-worker restarts the run may
	// perform: each time a worker connection dies (error or heartbeat
	// timeout), the coordinator supersedes every session, rewinds every
	// device to the global cut — the newest step every group has
	// snapshotted and every device has accounted for — and re-places them
	// on the re-joined or surviving workers. 0 disables worker-loss
	// tolerance — a lost worker fails the run — and, unless LedgerDir makes
	// the run durable, also turns off the snapshot traffic that recovery
	// needs.
	MaxRestarts int
	// Snapshot tunes the recovery-snapshot traffic when fault tolerance
	// is on (MaxRestarts > 0 or LedgerDir set): Interval k makes each
	// group's rank-0 device snapshot every k-th step (a restart replays up
	// to k steps instead of one); the members of a split group are
	// bit-identical replicas, so one copy stands for the group. The zero
	// policy means every step. Configuring a non-zero policy without fault
	// tolerance is an error.
	Snapshot SnapshotPolicy
	// LedgerDir, when set, makes the run durable: the coordinator
	// persists its manifest and what the global cut is computed from
	// (snapshots, loss rows, barrier releases, repartition cuts) to an
	// on-disk ledger in this directory, so a killed coordinator can be
	// restarted with ResumeRun and finish the run bit-identically. The
	// directory must not already hold a run.
	LedgerDir string
	// LedgerMeta is an opaque note stored in the ledger manifest (e.g.
	// the CLI invocation), for provenance only.
	LedgerMeta string
	// Fsync selects the ledger's durability tier (how often appended
	// records reach stable storage): the zero policy keeps the pre-tier
	// behavior — OS-buffered writes surviving process death but not power
	// loss. Only meaningful with LedgerDir.
	Fsync ledger.SyncPolicy
	// Repartition enables the measurement-driven runtime repartitioner:
	// the coordinator aggregates the workers' span batches into measured
	// per-block step times and, when re-planning under them predicts a
	// bottleneck improvement past the threshold, cuts the run at a
	// snapshotted step boundary and restarts it on the rebalanced
	// placement (recovery machinery, weights bit-identical, wall-clock
	// only). Any plan is accepted; only runs of unsplit groups move.
	// Forces fault tolerance and span shipping on.
	Repartition bool
	// HeartbeatInterval asks each worker to emit a liveness beacon this
	// often; HeartbeatTimeout declares a worker dead when nothing —
	// beacon or data — arrives within it. Zero disables silence
	// detection; connection errors still trigger recovery.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// Retry enables transient-fault absorption on every session link:
	// a broken connection — control or peer — redials with exponential
	// backoff under BudgetMillis, re-handshakes against the peer's
	// high-water mark, and replays exactly the unacked frames, so a
	// link flap is invisible to the run (no restart consumed, results
	// bit-identical). A link still down when the budget exhausts is
	// reported instead of silently retried forever: a peer edge whose
	// workers are all still alive is degraded to hub relay (ring runs,
	// budget-free), anything else falls through to a budget-counted
	// restart. BudgetMillis > 0 enables it; ring runs with
	// retry force fault tolerance on (degrades restart from the global
	// cut). See wire.RetrySpec for the knobs.
	Retry wire.RetrySpec
	// Trace asks every worker session to record per-step span events and
	// ship them to the coordinator at step boundaries (wire.KindSpans).
	// Arriving batches are handed to TraceSink. Tracing never changes the
	// run's trajectory; a restart re-records replayed steps, so the sink
	// sees both attempts' spans in wall-clock order.
	Trace bool
	// TraceSink receives every span batch — the workers' device tracks
	// and the coordinator's own "coordinator" track (ledger appends). It
	// is called from reader goroutines and must be safe for concurrent
	// use (obs.Collector.Add qualifies). Required when Trace is set.
	TraceSink func(track string, spans []obs.Span)
	// Metrics, when non-nil, receives the coordinator's operational
	// counters: steps completed, snapshots installed, worker recoveries
	// ("recoveries": restarts consumed from MaxRestarts), ledger
	// records/bytes, and — with Trace — the coordinator-track spans lost
	// to a full buffer ("spans_dropped").
	Metrics *obs.Metrics
	// Logf receives progress lines; nil is silent.
	Logf func(format string, args ...any)
}

// Coordinator drives a cluster run: it places the plan's devices on the
// workers, opens each session with one Assign frame (model spec, seed
// parameters, the first group's batch schedule or the recipe for it), and
// acts as the hub for the session's data flow — assembling teacher-relay
// activation shards and forwarding them downstream, performing the
// rank-ordered intra-group gradient reduction, counting the global no-DPU
// step barrier, accumulating per-block losses, and installing the trained
// weights it receives back.
//
// Every reduction the hub performs uses the exact floating-point
// evaluation order of the in-process engine (rank-ordered sums, merge via
// engine.MergeGroupLosses), so a cluster run's trajectory is bit-identical
// to engine.RunPipelined's.
//
// Its end of every session's control link is an endpoint like any peer
// link's (link.go): opened by the Assign, re-opened after a break by the
// same PeerHello handshake the workers use among themselves, with the
// coordinator naming itself wire.NoDev. Under the ring it carries no
// tensors except across a degraded peer edge, whose frames it forwards by
// destination device without opening them.
//
// With MaxRestarts > 0 the coordinator is also the recovery authority,
// under one rule for every topology (see driver.go): it keeps each
// group's post-step snapshots (parameters + optimizer velocities) back to
// the global cut, and when a worker dies it supersedes every session and
// restarts every device from that cut — the same placement, with the
// group's state at the cut riding in the Assign. Because every replayed
// step is a pure function of the restored state and the batches, the
// run's losses and trained weights remain bit-identical to a fault-free
// run.
type Coordinator struct {
	net transport.Network
	cfg Config
}

// NewCoordinator returns a coordinator that dials workers over net.
func NewCoordinator(net transport.Network, cfg Config) *Coordinator {
	return &Coordinator{net: net, cfg: cfg}
}

// Run is shorthand for NewCoordinator(net, cfg).Run(w, batches, addrs).
func Run(net transport.Network, addrs []string, w *distill.Workbench, batches []dataset.Batch, cfg Config) (engine.Result, error) {
	return NewCoordinator(net, cfg).Run(w, batches, addrs)
}

// PlaceDevices maps nDev device ranks onto nWorkers workers
// contiguously, giving earlier workers one extra device when the split is
// uneven. Workers beyond nDev receive no devices.
func PlaceDevices(nDev, nWorkers int) [][]int {
	if nWorkers <= 0 {
		return nil
	}
	out := make([][]int, nWorkers)
	base, extra := nDev/nWorkers, nDev%nWorkers
	next := 0
	for i := range out {
		n := base
		if i < extra {
			n++
		}
		for d := 0; d < n; d++ {
			out[i] = append(out[i], next)
			next++
		}
	}
	return out
}

// peerConn is the coordinator's handle on one joined worker session: its
// end of the control link, plus what the run tracks per session.
type peerConn struct {
	*endpoint
	addr    string
	devices []int

	lastHeard atomic.Int64 // unix nanos of the last inbound frame
	hbLost    atomic.Bool  // set by the heartbeat monitor before it kills the conn
}

func (p *peerConn) touch() { p.lastHeard.Store(time.Now().UnixNano()) }

// devPlace locates a device rank within the plan.
type devPlace struct {
	gi int // group index
	j  int // rank within the group
}

// devState is the coordinator's per-device account: where the device
// lives in the plan and the high-water marks of what it has reported.
// Frames from one device arrive in step order on a single connection and
// an attempt starts every device just past the cut, so "step <= seen" is
// a duplicate — a protocol error — and the minimum of the loss and
// barrier marks over all devices bounds the global cut. Mutable fields
// are guarded by run.mu; place is immutable.
type devState struct {
	place devPlace

	snapStep    int // last step the device snapshotted; -1 = none
	outputSeen  int
	lossSeen    int
	barrierSeen int
	done        bool
}

// run is the mutable state of one attempt.
type run struct {
	co       *Coordinator
	plan     sched.Plan
	nb       int
	steps    int
	nDev     int
	workb    *distill.Workbench
	batches  []dataset.Batch
	addrs    []string
	runCfg   wire.RunConfig
	ft       bool           // fault tolerance enabled (MaxRestarts > 0 or durable)
	seedSnap wire.Snapshot  // the run's seed params, immutable; shared by every attempt
	ringMode bool           // peer-to-peer data plane (Config.Topology == "ring")
	epoch    int64          // attempt epoch, stamped into every Assign
	repart   *repartitioner // drive-loop repartition controller; nil when disabled
	carry    *runCarry      // the cut this attempt started from; nil = attempt zero

	// tracer/coTrack instrument the coordinator's own control-plane work
	// (ledger appends) when Config.Trace is on; teardown drains the track
	// into Config.TraceSink. Per-attempt, like the rest of the run state.
	tracer  *obs.Tracer
	coTrack *obs.Track

	// Degraded peer edges (flattened pairs), installed by the driver
	// before placement and carried into every Assign.
	degraded []int

	mu          sync.Mutex
	linkDowns   [][2]int               // peer edges reported down this attempt
	led         *ledger.Ledger         // durable-run store, owned by the driver; nil for in-memory runs
	peerDir     []string               // device rank → hosting worker address
	histG       []map[int]histEntry    // ft: [gi] step → restart state (group-identical), back to the cut
	peers       []*peerConn            // live worker sessions; dead ones are fully closed and dropped
	byDev       map[int]*peerConn      // device rank → live peer (absent once dead)
	devs        map[int]*devState      // device rank → account (map itself immutable)
	groupParams [][]*tensor.Tensor     // [gi] workbench student params, flattened
	outputs     []map[int]*gather      // [gi] step → collected activation shards
	grads       []map[int]*gatherLists // [gi] step → collected gradient lists
	barrier     map[int]int            // step → devices arrived (no-DPU only)
	losses      [][][]float64          // [gi][j*nb+bi][step]
	done        int
	closed      bool // teardown ran; stale readers must touch nothing
	finished    chan struct{}

	failOnce sync.Once
	firstErr error
	failed   chan struct{}
}

type gather struct {
	parts []*tensor.Tensor
	have  int
}

type gatherLists struct {
	parts [][]*tensor.Tensor
	have  int
}

// Run executes the pipelined plan across the workers at addrs and
// returns the loss trajectory; w's student parameters are updated with
// the trained weights the group leaders send back. The run is
// bit-equivalent to engine.RunPipelined(w, batches, ...) with the same
// plan and hyperparameters — including runs that lose workers and restart
// from the global cut, when cfg.MaxRestarts allows it.
func (c *Coordinator) Run(w *distill.Workbench, batches []dataset.Batch, addrs []string) (engine.Result, error) {
	d := &driver{c: c, w: w, batches: batches, addrs: addrs, seed: CaptureSnapshot(w)}
	return d.drive()
}

// createLedger creates a fresh run's durable store — the manifest is the
// first attempt's setup — and applies the configured fsync durability
// tier.
func (c *Coordinator) createLedger(r *run) (*ledger.Ledger, error) {
	led, err := ledger.Create(c.cfg.LedgerDir, &ledger.Manifest{
		Assign:      wire.Assign{Plan: r.plan, Spec: c.cfg.Spec, Run: r.runCfg, Snapshot: r.seedSnap},
		Addrs:       r.addrs,
		Batches:     r.batches,
		MaxRestarts: c.cfg.MaxRestarts,
		Meta:        c.cfg.LedgerMeta,
	})
	if err != nil {
		return nil, err
	}
	if err := led.SetSync(c.cfg.Fsync); err != nil {
		led.Close()
		return nil, err
	}
	return led, nil
}

// execute drives a placed attempt to completion: start the readers and
// monitor, wait for every device's Done, then drain the sessions
// gracefully.
func (c *Coordinator) execute(r *run) (engine.Result, error) {
	r.start()
	select {
	case <-r.finished:
	case <-r.failed:
		return engine.Result{}, r.firstErr
	}
	// Graceful drain: every device reported Done, all frames consumed.
	r.mu.Lock()
	for _, p := range r.peers {
		p.out.Enqueue(wire.Control(wire.KindDrain, wire.NoDev, wire.NoStep))
	}
	r.mu.Unlock()
	return r.result(), nil
}

// newRun validates the configuration and builds one attempt's state. seed
// is the run's starting weights (see driver.seed).
func (c *Coordinator) newRun(w *distill.Workbench, seed wire.Snapshot, batches []dataset.Batch, addrs []string) (*run, error) {
	plan := c.cfg.Plan
	nDev := plan.NumDevices()
	if err := plan.Validate(nDev, w.NumBlocks()); err != nil {
		return nil, err
	}
	if len(batches) == 0 {
		return nil, fmt.Errorf("cluster: no batches")
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no worker addresses")
	}
	for _, g := range plan.Groups {
		if k := g.Split(); batches[0].X.Dim(0)%k != 0 {
			return nil, fmt.Errorf("cluster: batch %d not divisible by group size %d", batches[0].X.Dim(0), k)
		}
	}
	if c.cfg.Spec.Blocks != w.NumBlocks() {
		return nil, fmt.Errorf("cluster: spec has %d blocks, workbench has %d", c.cfg.Spec.Blocks, w.NumBlocks())
	}
	switch c.cfg.Topology {
	case "", "hub", "ring":
	default:
		return nil, fmt.Errorf("cluster: unknown topology %q (want \"hub\" or \"ring\")", c.cfg.Topology)
	}
	// Repartitioning implies fault tolerance: the planned cut restarts
	// from the same snapshot history recovery uses. So does retry on a
	// ring run: degrading a persistently severed peer edge to hub relay
	// restarts the attempt from the global cut too (the degrade itself is
	// budget-free).
	ft := c.cfg.MaxRestarts > 0 || c.cfg.LedgerDir != "" || c.cfg.Repartition ||
		(c.cfg.Topology == "ring" && c.cfg.Retry.Enabled())
	policy, err := effectivePolicy(c.cfg.Snapshot, ft)
	if err != nil {
		return nil, err
	}
	r := &run{
		co: c, plan: plan, nb: w.NumBlocks(), steps: len(batches), nDev: nDev,
		byDev: make(map[int]*peerConn), devs: make(map[int]*devState),
		workb: w, batches: batches, addrs: addrs,
		ft:       ft,
		ringMode: c.cfg.Topology == "ring",
		outputs:  make([]map[int]*gather, len(plan.Groups)),
		grads:    make([]map[int]*gatherLists, len(plan.Groups)),
		barrier:  make(map[int]int),
		losses:   make([][][]float64, len(plan.Groups)),
		finished: make(chan struct{}),
		failed:   make(chan struct{}),
	}
	if r.ft {
		r.histG = make([]map[int]histEntry, len(plan.Groups))
		for gi := range r.histG {
			r.histG[gi] = make(map[int]histEntry)
		}
	}
	if c.cfg.Trace {
		if c.cfg.TraceSink == nil {
			return nil, fmt.Errorf("cluster: Config.Trace needs a TraceSink to deliver span batches to")
		}
		r.tracer = obs.NewTracer(true)
		r.coTrack = r.tracer.NewTrack("coordinator")
	}
	r.seedSnap = seed
	r.runCfg = wire.RunConfig{DPU: c.cfg.DPU, LR: c.cfg.LR, Momentum: c.cfg.Momentum,
		Steps: r.steps, Backend: c.cfg.Backend,
		Snap:            policy,
		HeartbeatMillis: int(c.cfg.HeartbeatInterval / time.Millisecond),
		Topology:        c.cfg.Topology,
		Retry:           c.cfg.Retry,
		// The repartitioner's measurements are the workers' span batches,
		// so a repartition-enabled run ships spans even when the caller
		// did not ask for a trace.
		Trace: c.cfg.Trace || c.cfg.Repartition,
		Data:  c.cfg.Data}
	if c.cfg.Data.N > 0 {
		if err := validateDataRecipe(c.cfg.Data, batches); err != nil {
			return nil, err
		}
	}
	r.groupParams = make([][]*tensor.Tensor, len(plan.Groups))
	for gi, g := range plan.Groups {
		r.outputs[gi] = make(map[int]*gather)
		r.grads[gi] = make(map[int]*gatherLists)
		r.losses[gi] = make([][]float64, len(g.Blocks)*g.Split())
		for i := range r.losses[gi] {
			r.losses[gi][i] = make([]float64, r.steps)
		}
		for _, b := range g.Blocks {
			for _, p := range w.Pairs[b].Student.Params() {
				r.groupParams[gi] = append(r.groupParams[gi], p.Value)
			}
		}
		for j, d := range g.Devices {
			r.devs[d] = &devState{place: devPlace{gi: gi, j: j},
				snapStep: -1, outputSeen: -1, lossSeen: -1, barrierSeen: -1}
		}
	}
	return r, nil
}

// effectivePolicy resolves the configured snapshot policy against the
// run's fault-tolerance mode: the zero policy defaults to every-step
// snapshots when recovery is possible and to no snapshots at all
// otherwise, while an explicit policy without any recovery mechanism
// is a configuration error (pure wasted traffic).
func effectivePolicy(p wire.SnapshotPolicy, ft bool) (wire.SnapshotPolicy, error) {
	if p.Interval < 0 {
		return wire.SnapshotPolicy{}, fmt.Errorf("cluster: snapshot interval must be >= 0, got %d", p.Interval)
	}
	if !ft {
		if p.Interval > 0 {
			return wire.SnapshotPolicy{}, fmt.Errorf("cluster: snapshot policy %+v needs fault tolerance (MaxRestarts > 0 or LedgerDir)", p)
		}
		return wire.SnapshotPolicy{}, nil
	}
	if p.Interval == 0 {
		p.Interval = 1
	}
	return p, nil
}

// logRecord appends one record to the run's ledger; a durable run that
// cannot persist its state must fail rather than silently lose the
// resume guarantee. Callers hold r.mu, so the log's record order matches
// the mutation order exactly.
func (r *run) logRecord(rec *ledger.Record) {
	if r.led == nil {
		return
	}
	sp := r.coTrack.Begin(obs.CatLedger, "ledger_append")
	err := r.led.Append(rec)
	sp.End()
	if err != nil {
		r.fail(err)
		return
	}
	if m := r.co.cfg.Metrics; m != nil {
		recs, bytes := r.led.Written()
		m.Set("ledger_records", recs)
		m.Set("ledger_bytes", bytes)
	}
}

// attach registers a freshly opened session (Assign already sent) as the
// live host of its devices. Runs before start, while the attempt is still
// single-threaded.
func (r *run) attach(conn transport.Conn, addr string, devices []int) {
	links := linkPolicy{epoch: r.epoch, net: r.co.net, retry: r.runCfg.Retry,
		logf: r.co.logf, metrics: r.co.cfg.Metrics}
	// The control link's far end is any device the session hosts: a redial
	// finds the session in the worker's registry by it.
	p := &peerConn{addr: addr, devices: devices, endpoint: links.endpoint(conn,
		int(wire.NoDev), devices[0], fmt.Sprintf("worker %s control link", addr), addr)}
	p.touch()
	r.peers = append(r.peers, p)
	for _, d := range devices {
		r.byDev[d] = p
	}
}

func (c *Coordinator) joinTimeout() time.Duration {
	if t := c.cfg.JoinTimeout; t > 0 {
		return t
	}
	return 10 * time.Second
}

// recvDeadline bounds a single handshake Recv by the join deadline: a
// TCP connect can succeed against a silent or busy peer (listen backlog)
// long before anything speaks, and Conn has no deadline of its own. On
// timeout the connection is closed, which unblocks the pending Recv; the
// spawned goroutine then drains into the buffered channel and exits.
func recvDeadline(conn transport.Conn, deadline time.Time) (*wire.Frame, error) {
	type result struct {
		f   *wire.Frame
		err error
	}
	ch := make(chan result, 1)
	go func() {
		f, err := conn.Recv()
		ch <- result{f, err}
	}()
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case res := <-ch:
		return res.f, res.err
	case <-timer.C:
		conn.Close()
		return nil, fmt.Errorf("cluster: no handshake before join deadline")
	}
}

// dialHello opens the one handshake every connection to a worker starts
// with: dial, then the worker's Hello, bounded by the deadline. The caller
// owns the returned connection.
func dialHello(net transport.Network, addr string, deadline time.Time) (transport.Conn, error) {
	conn, err := net.Dial(addr)
	if err != nil {
		return nil, err
	}
	hello, err := recvDeadline(conn, deadline)
	if err == nil && hello.Kind != wire.KindHello {
		err = fmt.Errorf("worker %s sent %v, want hello", addr, hello.Kind)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// start launches the per-peer readers and — when configured — the
// heartbeat monitor.
func (r *run) start() {
	r.mu.Lock()
	peers := append([]*peerConn(nil), r.peers...)
	r.mu.Unlock()
	for _, p := range peers {
		r.startReader(p)
	}
	if r.co.cfg.HeartbeatTimeout > 0 {
		go r.monitorHeartbeats()
	}
}

// startReader consumes one peer's inbound frames until the connection
// dies. A connection error during a live run is a worker death: it goes
// through handlePeerFailure, which fails the attempt with the typed error
// the driver restarts from. Protocol errors are never recovered — they
// mean a bug, not a crash.
func (r *run) startReader(p *peerConn) {
	go func() {
		// A panic while handling a malformed-but-decodable frame must
		// fail the run, not crash the coordinator process.
		defer func() {
			if rec := recover(); rec != nil {
				r.fail(fmt.Errorf("cluster: handling frames from worker %s panicked: %v", p.addr, rec))
			}
		}()
		for {
			f, err := p.conn.Recv()
			if err != nil {
				select {
				case <-r.finished: // normal teardown
				case <-r.failed:
				default:
					if p.hbLost.Load() {
						err = fmt.Errorf("heartbeat timeout after %v (%w)", r.co.cfg.HeartbeatTimeout, err)
					}
					r.handlePeerFailure(p, fmt.Errorf("cluster: worker %s: %w", p.addr, err))
				}
				return
			}
			p.touch()
			if err := r.handle(p, f); err != nil {
				r.fail(err)
				return
			}
		}
	}()
}

// monitorHeartbeats kills connections that have gone silent for longer
// than the configured timeout; the reader's Recv then errors and the
// normal failure/recovery path takes over.
func (r *run) monitorHeartbeats() {
	timeout := r.co.cfg.HeartbeatTimeout
	tick := timeout / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-r.finished:
			return
		case <-r.failed:
			return
		case <-ticker.C:
			r.mu.Lock()
			peers := append([]*peerConn(nil), r.peers...)
			r.mu.Unlock()
			for _, p := range peers {
				if p.res != nil && p.res.Reconnecting() {
					// The link flapped and is being absorbed: silence is
					// expected, not death. If the reconnect budget runs out
					// the Recv turns terminal and the failure path runs; if
					// it heals, replayed heartbeats refresh lastHeard.
					p.touch()
					continue
				}
				heard := time.Unix(0, p.lastHeard.Load())
				if time.Since(heard) > timeout && p.hbLost.CompareAndSwap(false, true) {
					r.co.logf("worker %s silent for over %v, declaring it dead", p.addr, timeout)
					p.conn.Close()
				}
			}
		}
	}
}

// validateDataRecipe proves Config.Data regenerates the exact batches
// passed to Run: first-group workers source their inputs from the recipe, so a
// recipe that drifted from the real schedule would silently train on
// different data. The comparison is bit-exact, same as every other
// equivalence contract in this package.
func validateDataRecipe(ds wire.DataSpec, batches []dataset.Batch) error {
	gen, err := ds.Batches()
	if err != nil {
		return err
	}
	if len(gen) < len(batches) {
		return fmt.Errorf("cluster: Config.Data regenerates %d batches, run has %d", len(gen), len(batches))
	}
	for i, b := range batches {
		bd, gd := b.X.Data(), gen[i].X.Data()
		if len(bd) != len(gd) {
			return fmt.Errorf("cluster: Config.Data batch %d has %d values, run's has %d", i, len(gd), len(bd))
		}
		for j := range bd {
			if math.Float32bits(bd[j]) != math.Float32bits(gd[j]) {
				return fmt.Errorf("cluster: Config.Data does not reproduce the run's batches (step %d diverges)", i)
			}
		}
	}
	return nil
}

// scheduleFor returns the batch schedule a session's Assign carries when
// the listed devices include a first-group member: the full run's input
// tensors, so group-0 members source every step locally and the
// coordinator sends no per-step input frames at all. Sessions hosting only
// later groups, and runs with a Data recipe (where workers regenerate the
// schedule themselves) get nothing.
func (r *run) scheduleFor(devices []int) []*tensor.Tensor {
	if r.runCfg.Data.N > 0 {
		return nil
	}
	for _, d := range devices {
		if r.devs[d].place.gi == 0 {
			xs := make([]*tensor.Tensor, len(r.batches))
			for i, b := range r.batches {
				xs[i] = b.X
			}
			return xs
		}
	}
	return nil
}

// sendGroupInputLocked delivers one step's relayed-activation payload to
// every attached member of a later group. Callers hold r.mu and deliver each device's
// inputs in increasing step order.
func (r *run) sendGroupInputLocked(devs []int, step int, payload []byte) {
	for _, d := range devs {
		if p := r.byDev[d]; p != nil {
			p.out.Enqueue(&wire.Frame{Kind: wire.KindInput, Dev: int32(d), Step: int32(step), Payload: payload})
		}
	}
}

func (r *run) fail(err error) {
	r.failOnce.Do(func() {
		r.firstErr = err
		close(r.failed)
	})
}

// onLinkDown records a worker's report that a peer link exhausted its
// reconnect budget and fails the attempt immediately with the typed
// worker-lost error: the driver then classifies the failure —
// degrade the edge to hub relay when every worker is still alive
// (budget-free), or fall through to a budget-counted restart.
func (r *run) onLinkDown(p *peerConn, from, to int) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.linkDowns = append(r.linkDowns, [2]int{from, to})
	r.mu.Unlock()
	r.co.cfg.Metrics.Add("peer_links_down", 1)
	r.co.logf("worker %s reports peer link %d<->%d down (reconnect budget exhausted)", p.addr, from, to)
	r.fail(workerLostError{cause: fmt.Errorf("peer link %d<->%d persistently down", from, to)})
}

// handlePeerFailure retires a dead peer and fails the attempt with the
// typed worker-lost error, which the driver turns into a restart of every
// device from the global cut (budget permitting): the dead worker's
// in-flight exchanges — a half-assembled gather, one side of a ring
// collective — are abandoned with the attempt rather than replayed
// one-sided. It runs once per peer, on the dead peer's reader goroutine.
func (r *run) handlePeerFailure(p *peerConn, cause error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	for i, q := range r.peers {
		if q == p {
			r.peers = append(r.peers[:i], r.peers[i+1:]...)
			break
		}
	}
	allDone := true
	for _, d := range p.devices {
		delete(r.byDev, d)
		if !r.devs[d].done {
			allDone = false
		}
	}
	r.mu.Unlock()

	p.close(false)

	if allDone {
		// Every hosted device already completed; the lost connection
		// cannot affect the result.
		r.co.logf("worker %s dropped after finishing devices %v; no recovery needed", p.addr, p.devices)
		return
	}
	r.fail(workerLostError{cause: cause})
}

// teardown closes every session (endpoint.close): after a failure a peer
// that died with a full transport window must not leak the outbox writer
// (and block Run) forever; on the graceful path the final Drain frames
// must reach the workers.
func (r *run) teardown() {
	r.mu.Lock()
	r.closed = true
	peers := append([]*peerConn(nil), r.peers...)
	r.mu.Unlock()
	if r.coTrack != nil {
		if spans := r.coTrack.Drain(); len(spans) > 0 {
			r.co.cfg.TraceSink(r.coTrack.Name(), spans)
		}
		// The track lives for one attempt and drains only here, so its
		// drop count is this attempt's.
		r.co.cfg.Metrics.Add("spans_dropped", r.coTrack.Dropped())
	}
	graceful := true
	select {
	case <-r.failed:
		// A planned repartition supersedes the attempt deliberately:
		// flush the outboxes so every session receives its Repartition
		// frame before the connection closes. Real failures kill the
		// outboxes — a dead worker is not reading.
		var pr *plannedRepartition
		graceful = errors.As(r.firstErr, &pr)
	default:
	}
	for _, p := range peers {
		p.close(graceful)
	}
}

// handle processes one inbound frame on the owning peer's reader
// goroutine. Payload decoding — the hub's hottest work — happens here,
// outside the session lock, so readers for different workers decode
// concurrently; only the gather bookkeeping, reductions, and counters
// run under r.mu (r.devs' map structure is immutable once readers start).
//
// Every state-mutating branch re-checks r.closed under r.mu and drops
// the frame once teardown ran: reader goroutines can outlive their run
// (teardown closes connections but does not join them), and some state —
// the coordinator's workbench, the carried loss matrix, the ledger — is shared
// with the next attempt, which owns a different mutex. The closed
// flag flips inside teardown's critical section on the driver goroutine,
// so any write a reader commits before it is ordered before the next
// attempt's reads, and any reader arriving after it observes closed and
// touches nothing.
func (r *run) handle(p *peerConn, f *wire.Frame) error {
	dev := int(f.Dev)
	ds, ok := r.devs[dev]
	if !ok && f.Kind != wire.KindHello && f.Kind != wire.KindHeartbeat && f.Kind != wire.KindLinkDown {
		return fmt.Errorf("cluster: worker %s sent %v for unknown device %d", p.addr, f.Kind, f.Dev)
	}
	step := int(f.Step)
	switch f.Kind {
	case wire.KindHello, wire.KindHeartbeat:
		return nil // heartbeats already refreshed lastHeard; late hellos are harmless
	case wire.KindLinkDown:
		from, to, err := wire.DecodeLinkDown(f)
		if err != nil {
			return err
		}
		r.onLinkDown(p, from, to)
		return nil
	case wire.KindRelay:
		if !r.ringMode {
			return fmt.Errorf("cluster: hub worker sent a degraded-edge %v frame (device %d step %d)", f.Kind, dev, step)
		}
		// A peer frame crossing a degraded edge: the envelope routes by Dev
		// and its contents are opaque to the coordinator — forwarding the
		// payload verbatim is what keeps the degraded path bit-identical to
		// the direct link.
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.closed {
			return nil
		}
		if q := r.byDev[dev]; q != nil {
			q.out.Enqueue(f)
		}
		return nil
	case wire.KindOutput:
		if r.ringMode {
			return fmt.Errorf("cluster: ring worker relayed an output through the hub (device %d step %d)", dev, step)
		}
		place := ds.place
		if place.gi >= len(r.plan.Groups)-1 {
			return fmt.Errorf("cluster: last group relayed an output for step %d", step)
		}
		if r.plan.Groups[place.gi].Split() == 1 {
			// Unsplit group: the shard IS the full batch. Forward the
			// encoded payload verbatim — decoding and re-encoding it here
			// would produce identical bytes (validation happens at the
			// receiving worker's decode).
			r.mu.Lock()
			defer r.mu.Unlock()
			if r.closed {
				return nil
			}
			if step <= ds.outputSeen {
				return duplicate(ds, "output", step)
			}
			ds.outputSeen = step
			r.sendGroupInputLocked(r.plan.Groups[place.gi+1].Devices, step, f.Payload)
			return nil
		}
		t, err := wire.DecodeTensor(f)
		if err != nil {
			return err
		}
		return r.onOutput(ds, step, t)
	case wire.KindGrads:
		if r.ringMode {
			return fmt.Errorf("cluster: ring worker sent gradients to the hub (device %d step %d)", dev, step)
		}
		lists, err := wire.DecodeTensors(f)
		if err != nil {
			return err
		}
		return r.onGrads(ds, step, lists)
	case wire.KindStepDone:
		return r.onStepDone(ds, step)
	case wire.KindLosses:
		vals, err := wire.DecodeLosses(f)
		if err != nil {
			return err
		}
		return r.onLosses(ds, step, vals)
	case wire.KindSnapshot:
		if !r.ft {
			return nil // stray snapshot from a session we did not ask to send them
		}
		params, velocity, err := wire.DecodeDeviceSnapshot(f)
		if err != nil {
			return err
		}
		return r.onSnapshot(dev, ds, step, params, velocity)
	case wire.KindSpans:
		if !r.co.cfg.Trace && r.repart == nil {
			return nil // stray batch from a session we did not ask to trace
		}
		b, err := wire.DecodeSpans(f)
		if err != nil {
			return err
		}
		// Sink delivery and repartition aggregation happen here on the
		// reader goroutine, outside r.mu — span batches never contend
		// with the data plane.
		if r.co.cfg.Trace {
			r.co.cfg.TraceSink(b.Track, b.Spans)
		}
		if r.repart != nil {
			r.observeSpans(b.Track, b.Spans)
		}
		return nil
	case wire.KindFinalParams:
		params, err := wire.DecodeTensors(f)
		if err != nil {
			return err
		}
		return r.onFinalParams(ds.place, params)
	case wire.KindDone:
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.closed {
			return nil
		}
		if ds.done {
			return duplicate(ds, "done", step)
		}
		ds.done = true
		r.done++
		if r.done == r.nDev {
			close(r.finished)
		}
		return nil
	default:
		return fmt.Errorf("cluster: worker %s sent unexpected %v frame", p.addr, f.Kind)
	}
}

// duplicate is the protocol error for a frame the device already sent: an
// attempt starts every device just past the cut, and the resumable links
// replay exactly the frames a flap lost, so nothing legitimate repeats.
func duplicate(ds *devState, what string, step int) error {
	return fmt.Errorf("cluster: duplicate %s from group %d rank %d step %d", what, ds.place.gi, ds.place.j, step)
}

// onOutput collects a split group's boundary-activation shards (the
// k == 1 case forwards payloads directly in handle); once every member's
// shard of the step arrived, it assembles the full batch in rank order
// and relays it to each member of the next group.
func (r *run) onOutput(ds *devState, step int, t *tensor.Tensor) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	if step <= ds.outputSeen {
		return duplicate(ds, "output", step)
	}
	ds.outputSeen = step
	place := ds.place
	st := r.outputs[place.gi]
	g := st[step]
	if g == nil {
		g = &gather{parts: make([]*tensor.Tensor, r.plan.Groups[place.gi].Split())}
		st[step] = g
	}
	g.parts[place.j] = t
	g.have++
	if g.have < len(g.parts) {
		return nil
	}
	delete(st, step)
	full, err := assembleShards(g.parts)
	if err != nil {
		return fmt.Errorf("cluster: group %d step %d: %w", place.gi, step, err)
	}
	payload := wire.EncodeTensor(wire.KindInput, wire.NoDev, int32(step), full).Payload
	r.sendGroupInputLocked(r.plan.Groups[place.gi+1].Devices, step, payload)
	return nil
}

// onGrads collects a split group's gradient lists and, once complete,
// performs the deterministic all-reduce — sum over member ranks 0..k-1,
// scale by 1/k, exactly the in-process evaluation order — and returns the
// mean to every member.
func (r *run) onGrads(ds *devState, step int, lists []*tensor.Tensor) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	place := ds.place
	k := r.plan.Groups[place.gi].Split()
	if k == 1 {
		return fmt.Errorf("cluster: gradient frame from unsplit group %d", place.gi)
	}
	st := r.grads[place.gi]
	g := st[step]
	if g == nil {
		g = &gatherLists{parts: make([][]*tensor.Tensor, k)}
		st[step] = g
	}
	if g.parts[place.j] != nil {
		return duplicate(ds, "gradients", step)
	}
	g.parts[place.j] = lists
	g.have++
	if g.have < k {
		return nil
	}
	delete(st, step)
	n := len(g.parts[0])
	for rk, l := range g.parts {
		if len(l) != n {
			return fmt.Errorf("cluster: group %d step %d gradient counts differ", place.gi, step)
		}
		for pi, t := range l {
			if !t.SameShape(g.parts[0][pi]) {
				return fmt.Errorf("cluster: group %d step %d rank %d gradient %d shape %v, rank 0 has %v",
					place.gi, step, rk, pi, t.Shape(), g.parts[0][pi].Shape())
			}
		}
	}
	inv := 1 / float32(k)
	reduced := make([]*tensor.Tensor, n)
	for pi := 0; pi < n; pi++ {
		sum := tensor.New(g.parts[0][pi].Shape()...)
		for rk := 0; rk < k; rk++ {
			tensor.AddInto(sum, g.parts[rk][pi])
		}
		tensor.ScaleInPlace(sum, inv)
		reduced[pi] = sum
	}
	payload := wire.EncodeTensors(wire.KindGradsReduced, wire.NoDev, int32(step), reduced).Payload
	for _, d := range r.plan.Groups[place.gi].Devices {
		if p := r.byDev[d]; p != nil {
			p.out.Enqueue(&wire.Frame{Kind: wire.KindGradsReduced,
				Dev: int32(d), Step: int32(step), Payload: payload})
		}
	}
	return nil
}

// onStepDone counts the global no-DPU barrier; the arrival that completes
// a step persists the release and sends every device its StepGo.
func (r *run) onStepDone(ds *devState, step int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	if step <= ds.barrierSeen {
		return duplicate(ds, "step-done", step)
	}
	ds.barrierSeen = step
	r.barrier[step]++
	if r.barrier[step] == r.nDev {
		delete(r.barrier, step)
		// Only the release is persisted: it implies every device's arrival,
		// and an unreleased barrier means no device completed the step, so
		// every device re-arrives after a restart.
		if err := r.commitLocked(ledger.Barrier(step)); err != nil {
			return err
		}
		for d, p := range r.byDev {
			p.out.Enqueue(wire.Control(wire.KindStepGo, int32(d), int32(step)))
		}
	}
	return nil
}

// onLosses records a member's per-block losses; the report that completes
// a step for the whole first group counts it in steps_completed.
func (r *run) onLosses(ds *devState, step int, vals []float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	if step <= ds.lossSeen {
		return duplicate(ds, "losses", step)
	}
	place := ds.place
	if err := r.commitLocked(ledger.Losses(r.plan.Groups[place.gi].Devices[place.j], step, vals)); err != nil {
		return err
	}
	if place.gi == 0 {
		// Devices report each step once, in order, so the step's last
		// reporter is the one that finds every sibling at or past it.
		for _, d := range r.plan.Groups[0].Devices {
			if r.devs[d].lossSeen < step {
				return nil
			}
		}
		r.co.cfg.Metrics.Add("steps_completed", 1)
	}
	return nil
}

func (r *run) checkLosses(ds *devState, step int, vals []float64) error {
	if nbg := len(r.plan.Groups[ds.place.gi].Blocks); len(vals) != nbg {
		return fmt.Errorf("cluster: group %d rank %d reported %d losses, want %d", ds.place.gi, ds.place.j, len(vals), nbg)
	}
	if step < 0 || step >= r.steps {
		return fmt.Errorf("cluster: loss report for step %d of %d", step, r.steps)
	}
	return nil
}

// recordLossesLocked fills one device's loss row and advances its mark (a
// restarted coordinator re-logs the rows it replays, bit-identically, so a
// ledger replay may see a step twice).
func (r *run) recordLossesLocked(ds *devState, step int, vals []float64) {
	nbg := len(vals)
	for bi, v := range vals {
		r.losses[ds.place.gi][ds.place.j*nbg+bi][step] = v
	}
	if step > ds.lossSeen {
		ds.lossSeen = step
	}
}

// onSnapshot persists a group's post-step restart state and records it in
// the group's history. Replicas are bit-identical after every step, so the
// one copy rank 0 ships stands for the whole group; whether a snapshotted
// step can be the cut is decided by cutLocked from every device's loss and
// barrier marks, never by the snapshot alone.
func (r *run) onSnapshot(dev int, ds *devState, step int, params, velocity []*tensor.Tensor) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	if step <= ds.snapStep {
		return duplicate(ds, "snapshot", step)
	}
	if err := r.commitLocked(ledger.DevSnapshot(dev, step, params, velocity)); err != nil {
		return err
	}
	r.co.cfg.Metrics.Add("snapshots", 1)
	return nil
}

// commitLocked is how a live arm changes the state a restart is computed
// from: the record is applied — validated, marked, recorded, exactly as a
// ledger replay would — and then persisted, so the log only ever holds
// records its own replay accepts.
func (r *run) commitLocked(rec *ledger.Record) error {
	if err := r.applyRecordLocked(rec); err != nil {
		return err
	}
	r.logRecord(rec)
	return nil
}

// checkSnapshot validates a snapshot record against the plan: only rank 0
// of a group snapshots, and the tensors must match what the group trains.
func (r *run) checkSnapshot(dev int, place devPlace, params, velocity []*tensor.Tensor) error {
	gi := place.gi
	if place.j != 0 {
		return fmt.Errorf("cluster: snapshot from device %d, rank %d of group %d (only rank 0 snapshots)", dev, place.j, gi)
	}
	expect := r.groupParams[gi]
	if len(params) != len(expect) {
		return fmt.Errorf("cluster: device %d snapshot has %d params, group %d trains %d",
			dev, len(params), gi, len(expect))
	}
	for i, t := range params {
		if !t.SameShape(expect[i]) || !velocity[i].SameShape(expect[i]) {
			return fmt.Errorf("cluster: device %d snapshot param %d shape %v/%v, want %v",
				dev, i, t.Shape(), velocity[i].Shape(), expect[i].Shape())
		}
	}
	return nil
}

// onFinalParams installs a group leader's trained student parameters
// into the coordinator's workbench.
func (r *run) onFinalParams(place devPlace, params []*tensor.Tensor) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	if place.j != 0 {
		return fmt.Errorf("cluster: final params from non-leader rank %d of group %d", place.j, place.gi)
	}
	var dst []*tensor.Tensor
	for _, b := range r.plan.Groups[place.gi].Blocks {
		for _, p := range r.workb.Pairs[b].Student.Params() {
			dst = append(dst, p.Value)
		}
	}
	if len(params) != len(dst) {
		return fmt.Errorf("cluster: group %d returned %d trained params, workbench wants %d", place.gi, len(params), len(dst))
	}
	for i, t := range params {
		if !t.SameShape(dst[i]) {
			return fmt.Errorf("cluster: group %d trained param %d shape %v, want %v", place.gi, i, t.Shape(), dst[i].Shape())
		}
		dst[i].CopyFrom(t)
	}
	return nil
}

// result merges the per-member loss rows into the per-block trajectory,
// through the same helper (and therefore the same float64 evaluation
// order) as engine.RunPipelined.
func (r *run) result() engine.Result {
	res := engine.Result{Loss: make([][]float64, r.nb)}
	for gi, g := range r.plan.Groups {
		merged := engine.MergeGroupLosses(r.losses[gi], len(g.Blocks), g.Split(), r.steps)
		for bi, b := range g.Blocks {
			res.Loss[b] = merged[bi]
		}
	}
	return res
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}
