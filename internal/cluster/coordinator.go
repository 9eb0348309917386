package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync"
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
	// Topology selects how the peer edges of the one data plane are
	// carried: "hub" (or empty) relays every edge through the coordinator,
	// which forwards the envelopes unopened; "ring" has the workers dial
	// each other and relays only an edge degraded after its link exhausted
	// RetryBudget. Either way the devices exchange the same frames, the
	// first group reads its batches locally — no per-step input frame
	// exists — and the run is bit-identical to the in-process engine.
	Topology string
	// Data is the deterministic recipe of the run's batch schedule
	// (wire.DataSpec), and it is required. First-group devices build each
	// step's input from it locally — distributed data loading — so no
	// batch crosses any connection, and a durable run's
	// manifest stores the recipe, not the batches. Run validates before it
	// dials a worker that the recipe reproduces the batches passed to it
	// bit-exactly, keeping the bit-identity contract checkable.
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
	// is on, which any of four things turns on: MaxRestarts > 0, a
	// LedgerDir, Repartition, or a ring run with a RetryBudget. Interval k
	// makes each group's rank-0 device snapshot every k-th step (a restart
	// replays up to k steps instead of one); the members of a split group
	// are bit-identical replicas, so one copy stands for the group. The
	// zero policy means every step. Configuring a non-zero policy without
	// fault tolerance is an error.
	Snapshot SnapshotPolicy
	// LedgerDir, when set, makes the run durable: the coordinator
	// persists its manifest and what the global cut is computed from
	// (snapshots, loss rows, barrier releases, repartition cuts) to an
	// on-disk ledger in this directory, so a killed coordinator can be
	// restarted with ResumeRun and finish the run bit-identically. The
	// directory must not already hold a run.
	LedgerDir string
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
	// often; a worker from which nothing — beacon or data — arrives for
	// four intervals is declared dead. Zero disables silence detection;
	// connection errors still trigger recovery. The workers receive whole
	// milliseconds, so a nonzero interval under one is refused.
	HeartbeatInterval time.Duration
	// RetryBudget enables transient-fault absorption on every session
	// link: a broken connection — control or peer — redials with
	// backoff (the transport's 10 ms, doubling to 50 ms) for up to this
	// much downtime, re-handshakes against the peer's high-water mark,
	// and replays exactly the unacked frames, so a link flap is invisible
	// to the run (no restart consumed, results bit-identical). A link
	// still down when the budget exhausts is reported instead of silently
	// retried forever: a peer edge whose workers are all still alive is
	// degraded to relay (ring runs, budget-free), anything else falls
	// through to a budget-counted restart. Zero disables it; ring runs
	// with a budget force fault tolerance on (degrades restart from the
	// global cut). Only whole milliseconds reach the workers, so a nonzero
	// budget under one is refused.
	RetryBudget time.Duration
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
	// counters: "steps_completed", "snapshots" installed, the ledger's
	// "ledger_records" and "ledger_bytes", with Trace the coordinator-track
	// spans lost to a full buffer ("spans_dropped"), and one per decision
	// event: EventRestart adds to "recoveries" (restarts consumed from
	// MaxRestarts), EventDegrade to "degrades", EventRepartition to
	// "repartitions", EventLinkDown to "peer_links_down" and EventAbsorbed
	// to "link_faults_absorbed" and its frames to "link_frames_replayed".
	Metrics *obs.Metrics
	// OnEvent, when set, receives every decision the coordinator makes,
	// each as one Event of a kind EventKind lists. Absorbs arrive from
	// link goroutines, so it must be safe for concurrent use.
	OnEvent func(Event)
}

// Coordinator drives a cluster run: it places the plan's devices on the
// workers, opens each session with one Assign frame (model spec, seed
// parameters, the data recipe the first group regenerates its batches
// from, which peer edges it relays), counts the global no-DPU step
// barrier, accumulates per-block losses, and installs the trained weights
// it receives back. It never opens a tensor of the data plane: the
// devices assemble activations and reduce gradients themselves, and the
// loss merge uses engine.MergeGroupLosses, so a cluster run's trajectory
// is bit-identical to engine.RunPipelined's.
//
// Its end of every session's control link is an endpoint like any peer
// link's (link.go): opened by the Assign, re-opened after a break by the
// same PeerHello handshake the workers use among themselves, with the
// coordinator naming itself wire.NoDev. The only tensors it carries cross
// a relayed peer edge — every edge under the hub, a degraded one under the
// ring — and it forwards their envelopes by destination device, reading
// only the header that proves the sender may use the edge.
//
// With MaxRestarts > 0 it is also the recovery authority: when a worker
// dies it restarts every device from the global cut, bit-identically
// (see the package doc and driver.go).
type Coordinator struct {
	net   transport.Network
	clock transport.Clock // the network's: every wait of the run reads it
	cfg   Config
}

// NewCoordinator returns a coordinator that dials workers over net.
func NewCoordinator(net transport.Network, cfg Config) *Coordinator {
	return &Coordinator{net: net, clock: transport.ClockOf(net), cfg: cfg}
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

// peerConn is the coordinator's end of one joined worker session's
// control link.
type peerConn struct {
	*endpoint
	addr string
}

// run is the shell of one attempt: its sessions, the goroutines that read
// them and the loop that feeds its core. What the attempt decides — and
// the restart state it changes, the driver's account — is the core's.
type run struct {
	co         *Coordinator
	core       *attemptCore
	addrs      []string
	assign     wire.Assign    // the driver's setup with the attempt's plan, epoch, relayed edges and peers
	cut        int            // the cut the attempt starts from; -1 = the seed
	superseded bool           // see driver.superseded
	led        *ledger.Ledger // durable-run store, owned by the driver; nil for in-memory runs
	// coTrack instruments the coordinator's own control-plane work (ledger
	// appends) when Config.Trace is on; teardown drains it into
	// Config.TraceSink.
	coTrack *obs.Track

	// peers[i] is session i's control link; peers and routes are fixed
	// once the attempt is placed, so the readers use them unguarded.
	peers   []*peerConn
	routes  *routes
	stop    chan struct{} // closed by teardown: a reader still delivering gives up
	readers sync.WaitGroup
}

// Run executes the pipelined plan across the workers at addrs and
// returns the loss trajectory; w's student parameters are updated with
// the trained weights the group leaders send back. The run is
// bit-equivalent to engine.RunPipelined(w, batches, ...) with the same
// plan and hyperparameters — including runs that lose workers and restart
// from the global cut, when cfg.MaxRestarts allows it. The batches never
// leave this process: Config.Data must regenerate them, which Run checks
// before it dials a worker.
func (c *Coordinator) Run(w *distill.Workbench, batches []dataset.Batch, addrs []string) (engine.Result, error) {
	if len(batches) == 0 {
		return engine.Result{}, fmt.Errorf("cluster: no batches")
	}
	if err := validateDataRecipe(c.cfg.Data, batches); err != nil {
		return engine.Result{}, err
	}
	d, err := c.newDriver(w, CaptureSnapshot(w), len(batches), addrs)
	if err != nil {
		return engine.Result{}, err
	}
	return d.drive()
}

// createLedger creates a fresh run's durable store — the manifest is the
// run's setup — and applies the configured fsync durability tier.
func (c *Coordinator) createLedger(setup wire.Assign, addrs []string) (*ledger.Ledger, error) {
	led, err := ledger.Create(c.cfg.LedgerDir, &ledger.Manifest{
		Assign:      setup,
		Addrs:       addrs,
		MaxRestarts: c.cfg.MaxRestarts,
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

// newDriver validates the configuration and sets up what every attempt
// of a steps-long run shares: the setup Assign, whose snapshot is seed
// (see driver.setup), and the account built from it.
func (c *Coordinator) newDriver(w *distill.Workbench, seed wire.Snapshot, steps int, addrs []string) (*driver, error) {
	policy, err := effectivePolicy(c.cfg.Snapshot, c.faultTolerant())
	if err != nil {
		return nil, err
	}
	// The workers receive both in whole milliseconds: under one, a worker
	// would send no beacon, or run fail-fast links against resumable ones.
	for name, d := range map[string]time.Duration{"HeartbeatInterval": c.cfg.HeartbeatInterval, "RetryBudget": c.cfg.RetryBudget} {
		if d > 0 && d < time.Millisecond {
			return nil, fmt.Errorf("cluster: %s %v is under the millisecond the workers count it in", name, d)
		}
	}
	plan := c.cfg.Plan
	setup := wire.Assign{Plan: plan, Spec: c.cfg.Spec, Snapshot: seed,
		Run: wire.RunConfig{DPU: c.cfg.DPU, LR: c.cfg.LR, Momentum: c.cfg.Momentum,
			Steps: steps, Backend: c.cfg.Backend,
			Snap:              policy,
			HeartbeatMillis:   int(c.cfg.HeartbeatInterval / time.Millisecond),
			RetryBudgetMillis: int(c.cfg.RetryBudget / time.Millisecond),
			Topology:          c.cfg.Topology,
			// The repartitioner's measurements are the workers' span batches,
			// so a repartition-enabled run ships spans even when the caller
			// did not ask for a trace.
			Trace: c.cfg.Trace || c.cfg.Repartition,
			Data:  c.cfg.Data}}
	// The account checks the plan against the seed's blocks.
	acct, err := ledger.NewAccount(&setup)
	if err != nil {
		return nil, err
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no worker addresses")
	}
	for _, g := range plan.Groups {
		if k := g.Split(); c.cfg.Data.Batch%k != 0 {
			return nil, fmt.Errorf("cluster: batch %d not divisible by group size %d", c.cfg.Data.Batch, k)
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
	if c.cfg.Trace && c.cfg.TraceSink == nil {
		return nil, fmt.Errorf("cluster: Config.Trace needs a TraceSink to deliver span batches to")
	}
	return &driver{c: c, w: w, addrs: addrs, setup: setup, acct: acct}, nil
}

// faultTolerant reports whether the run keeps restart state. Repartitioning
// implies it: the planned cut restarts from the same snapshots recovery
// uses. So does retry on a ring run: degrading a persistently severed
// peer edge to relay restarts the attempt from the global cut too (the
// degrade itself is budget-free).
func (c *Coordinator) faultTolerant() bool {
	return c.cfg.MaxRestarts > 0 || c.cfg.LedgerDir != "" || c.cfg.Repartition ||
		(c.cfg.Topology == "ring" && c.cfg.RetryBudget > 0)
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
			return wire.SnapshotPolicy{}, fmt.Errorf("cluster: snapshot policy %+v needs fault tolerance (MaxRestarts > 0, LedgerDir, Repartition, or a ring run with RetryBudget)", p)
		}
		return wire.SnapshotPolicy{}, nil
	}
	if p.Interval == 0 {
		p.Interval = 1
	}
	return p, nil
}

// logRecord appends one record the core applied to the run's ledger; a
// durable run that cannot persist its state must fail rather than
// silently lose the resume guarantee. The loop appends in the order the
// core applied, so the log replays to the same account.
func (r *run) logRecord(rec *ledger.Record) error {
	if r.led == nil {
		return nil
	}
	sp := r.coTrack.Begin(obs.CatLedger, "ledger_append")
	err := r.led.Append(rec)
	sp.End()
	if err != nil {
		return err
	}
	if m := r.co.cfg.Metrics; m != nil {
		recs, bytes := r.led.Written()
		m.Set("ledger_records", recs)
		m.Set("ledger_bytes", bytes)
	}
	return nil
}

func (c *Coordinator) joinTimeout() time.Duration {
	if t := c.cfg.JoinTimeout; t > 0 {
		return t
	}
	return 10 * time.Second
}

// recvDeadline bounds a single handshake Recv by a deadline on clock: a
// TCP connect can succeed against a silent or busy peer (listen backlog)
// long before anything speaks, and Conn has no deadline of its own. At the
// deadline the connection is closed, which unblocks the pending Recv.
func recvDeadline(conn transport.Conn, clock transport.Clock, deadline int64) (*wire.Frame, error) {
	stop := clock.AfterFunc(time.Duration(deadline-clock.Now()), func() { conn.Close() })
	f, err := conn.Recv()
	if !stop() {
		return nil, fmt.Errorf("cluster: no handshake before join deadline")
	}
	return f, err
}

// dialHello opens the one handshake every connection to a worker starts
// with: dial, then the worker's Hello, bounded by the deadline on clock.
// The caller owns the returned connection.
func dialHello(net transport.Network, clock transport.Clock, addr string, deadline int64) (transport.Conn, error) {
	conn, err := net.Dial(addr)
	if err != nil {
		return nil, err
	}
	hello, err := recvDeadline(conn, clock, deadline)
	if err == nil && hello.Kind != wire.KindHello {
		err = fmt.Errorf("worker %s sent %v, want hello", addr, hello.Kind)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// execute is the attempt's loop, on the driver goroutine: it starts a
// reader per session, then handles every event — frames, connection
// losses, heartbeat ticks — one at a time, until one finishes or fails
// the attempt.
func (r *run) execute() (engine.Result, error) {
	// One buffered event per reader: a reader hands its event over and goes
	// back to Recv without waiting for the loop to take it.
	events := make(chan event, len(r.peers))
	for i, p := range r.peers {
		r.readers.Add(1)
		go r.read(i, p, events)
	}
	// The heartbeat tick hands the loop its instant and sleeps again once
	// the loop took it, so the rule sees every tick.
	tick := make(chan int64)
	if hb := r.co.cfg.HeartbeatInterval; hb > 0 {
		go func() {
			for transport.Sleep(r.co.clock, max(hb, 5*time.Millisecond), r.stop) {
				select {
				case tick <- r.co.clock.Now():
				case <-r.stop:
				}
			}
		}()
	}
	reconnecting := make([]bool, len(r.peers)) // every tick's
	for {
		var ev event
		select {
		case ev = <-events:
		case now := <-tick:
			ev = event{kind: evTick, at: now, reconnecting: reconnecting}
			for i, p := range r.peers {
				reconnecting[i] = p.res != nil && p.res.Reconnecting()
			}
		}
		if res, done, err := r.handle(ev); done {
			return res, err
		}
	}
}

// handle hands the core one event and carries out its effects in order,
// then releases the event's frame; done says the attempt ended, with res
// or err.
func (r *run) handle(ev event) (res engine.Result, done bool, err error) {
	defer ev.release()
	for _, e := range r.step(ev) {
		switch e.kind {
		case efSend:
			r.peers[e.sess].out.Enqueue(e.frame)
		case efRecord:
			if err := r.logRecord(e.rec); err != nil {
				return engine.Result{}, true, err
			}
		case efClose:
			r.peers[e.sess].close(false)
		case efFinish:
			return r.core.result(), true, nil
		case efFail:
			return engine.Result{}, true, e.err
		case efEvent:
			r.co.emit(*e.ev)
		}
	}
	return engine.Result{}, false, nil
}

// step runs the core on one event. A panic while handling a
// malformed-but-decodable frame fails the attempt, not the coordinator
// process.
func (r *run) step(ev event) (effs []effect) {
	defer func() {
		if rec := recover(); rec != nil {
			effs = []effect{{kind: efFail, err: fmt.Errorf("cluster: handling an event of session %d panicked: %v", ev.sess, rec)}}
		}
	}()
	return r.core.step(ev)
}

// read delivers one session's inbound frames to the loop until its
// connection dies. What the core keeps of a payload decodes here, so
// readers for different workers decode concurrently; a losses report and
// a snapshot reach the loop in their frame (frameEvent). A relay envelope
// never enters the loop: the reader
// checks it against the attempt's routes and forwards it unopened — which
// is what keeps a relayed edge bit-identical to a direct link — and only
// tells the loop, at most once per heartbeat interval, that the session
// is alive.
func (r *run) read(sess int, p *peerConn, events chan<- event) {
	defer r.readers.Done()
	var told int64 // when this reader last handed the loop an event
	for {
		f, err := p.conn.Recv()
		at := r.co.clock.Now()
		var ev event
		switch {
		case err != nil:
			ev = event{kind: evLost, at: at, sess: sess, err: fmt.Errorf("cluster: worker %s: %w", p.addr, err)}
		case f.Kind == wire.KindRelay:
			to, ferr := r.routes.forward(sess, p.addr, f)
			if ferr == nil {
				r.peers[to].out.Enqueue(f) // released once written
				if hb := r.co.cfg.HeartbeatInterval; hb == 0 || time.Duration(at-told) < hb {
					continue
				}
			}
			ev = event{kind: evFrame, at: at, sess: sess, frame: wire.KindRelay, err: ferr}
		default:
			ev = frameEvent(sess, at, f) // the loop releases f
			if ev.frame == wire.KindSpans && ev.err == nil && r.co.cfg.Trace {
				r.co.cfg.TraceSink(ev.spans.Track, ev.spans.Spans)
			}
		}
		select {
		case events <- ev:
			told = at
		case <-r.stop:
			ev.release()
			return
		}
		if err != nil {
			return
		}
	}
}

// teardown ends the attempt's sessions and joins their readers. On the
// graceful path — every device done, or a planned repartition, whose
// Repartition frames every session must receive — the outboxes flush
// before the connections close; after a failure they are killed, so a
// peer that died with a full transport window cannot leak its outbox
// writer (and block Run) forever.
func (r *run) teardown(err error) {
	if r.coTrack != nil {
		if spans := r.coTrack.Drain(); len(spans) > 0 {
			r.co.cfg.TraceSink(r.coTrack.Name(), spans)
		}
		// The track lives for one attempt and drains only here, so its
		// drop count is this attempt's.
		r.co.cfg.Metrics.Add("spans_dropped", r.coTrack.Dropped())
	}
	var pr *plannedRepartition
	graceful := err == nil || errors.As(err, &pr)
	for i, p := range r.peers {
		if r.core.sessions[i].live {
			p.close(graceful)
		}
	}
	close(r.stop)
	r.readers.Wait()
}

// validateDataRecipe proves Config.Data regenerates the exact batches
// passed to Run: first-group workers source their inputs from the recipe, so a
// recipe that drifted from the real schedule would silently train on
// different data. The comparison is bit-exact, same as every other
// equivalence contract in this package, one batch at a time.
func validateDataRecipe(ds wire.DataSpec, batches []dataset.Batch) error {
	if ds == (wire.DataSpec{}) {
		return fmt.Errorf("cluster: Config.Data is required: the first group's workers regenerate the run's batches from it")
	}
	if err := ds.Validate(); err != nil {
		return fmt.Errorf("cluster: Config.Data: %w", err)
	}
	if ds.Steps() < len(batches) {
		return fmt.Errorf("cluster: Config.Data regenerates %d batches, run has %d", ds.Steps(), len(batches))
	}
	gen := tensor.New(ds.BatchShape()...)
	for i, b := range batches {
		if !b.X.SameShape(gen) {
			return fmt.Errorf("cluster: Config.Data batch %d has shape %v, run's has %v", i, gen.Shape(), b.X.Shape())
		}
		if err := ds.RowsInto(i, 0, gen, nil); err != nil {
			return fmt.Errorf("cluster: Config.Data: %w", err)
		}
		bd, gd := b.X.Data(), gen.Data()
		for j := range bd {
			if math.Float32bits(bd[j]) != math.Float32bits(gd[j]) {
				return fmt.Errorf("cluster: Config.Data does not reproduce the run's batches (step %d diverges)", i)
			}
		}
	}
	return nil
}
