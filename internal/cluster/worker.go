package cluster

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/nn"
	"pipebd/internal/obs"
	"pipebd/internal/tensor"
)

// WorkerConfig parameterizes a worker server.
type WorkerConfig struct {
	// Sessions bounds how many coordinator sessions to serve before
	// Serve returns; 0 serves until the listener closes.
	Sessions int
	// Rejoin keeps failed sessions from counting toward Sessions: a
	// worker whose session dies (coordinator crash, connection loss,
	// chaos kill) or is superseded (any restart ends every worker's
	// session, not just the lost one's) stays up to accept the
	// replacement. Without it every accepted session counts, successful
	// or not.
	Rejoin bool
	// Dial is the network used to dial sibling workers for the peer data
	// plane. Required for ring-topology sessions; hub sessions never dial
	// out. Tests meter or chaos-wrap it independently of the listener.
	Dial transport.Network
	// TraceDir, when set, enables span tracing for every session this
	// worker serves — independently of whether the coordinator asked for
	// spans — and dumps each completed session's spans as a Chrome trace
	// JSON file in this directory (one file per session, named by run
	// epoch and hosted devices).
	TraceDir string
	// Metrics, when non-nil, receives the worker's operational counters:
	// sessions started/completed, device steps, snapshot frames shipped,
	// and — when tracing is on — cumulative busy nanoseconds per span
	// category ("busy_<category>_ns") and the spans lost to a full track
	// buffer ("spans_dropped").
	Metrics *obs.Metrics
	// Logf receives progress lines; nil is silent.
	Logf func(format string, args ...any)
	// Backend, when non-nil, overrides the compute backend for every
	// device this worker hosts, taking precedence over the backend the
	// Assign names. Used to model heterogeneous clusters — e.g. wrapping
	// the assigned backend in tensor.NewThrottled makes this worker a
	// bit-identical compute straggler the repartitioner can shed load
	// from.
	Backend tensor.Backend
}

// Worker hosts pipeline devices for a coordinator: it accepts a
// connection, receives an Assign (plan, model spec, run config, hosted
// device ranks, seed parameters and — on a restart — the per-device states
// to restore and replay from), rebuilds one workbench replica per hosted
// device, and drives each through engine.RunMember — the same device loop
// the in-process pipeline uses — over a transport-backed DeviceLink. After
// the last step it returns each group leader's trained student parameters
// and drains back to accepting the next session.
//
// Sessions are served concurrently: after a restart a surviving worker
// can host a dead sibling's devices in a second session beside its own,
// and a superseded session may still be unwinding when its replacement
// arrives.
type Worker struct {
	lis transport.Listener
	cfg WorkerConfig

	// hosts routes accepted hello connections — a peer link, or any link
	// being resumed — to the session hosting the target device. Every
	// session registers, keyed by run epoch so connections from a
	// superseded attempt can never reach a fresh one. hostCond wakes
	// connections that arrived before their session registered.
	hostMu   sync.Mutex
	hostCond *sync.Cond
	hosts    map[hostKey]*mesh
}

// hostKey identifies one hosted device within one run attempt.
type hostKey struct {
	epoch int64
	dev   int
}

// NewWorker wraps a bound listener in a worker server.
func NewWorker(lis transport.Listener, cfg WorkerConfig) *Worker {
	w := &Worker{lis: lis, cfg: cfg, hosts: make(map[hostKey]*mesh)}
	w.hostCond = sync.NewCond(&w.hostMu)
	return w
}

// Addr returns the listener's bound address.
func (w *Worker) Addr() string { return w.lis.Addr() }

// Close stops the listener; a blocked Serve returns after in-flight
// sessions finish.
func (w *Worker) Close() error { return w.lis.Close() }

// Serve accepts and runs coordinator sessions until the listener closes
// (returning nil) or the configured session count is reached — counting
// every session, or only successful ones when Rejoin is set. Sessions run
// concurrently; Serve waits for all in-flight sessions before returning.
// A failed session is logged and does not stop the server.
func (w *Worker) Serve() error {
	var wg sync.WaitGroup
	defer wg.Wait()
	var mu sync.Mutex
	counted := 0
	for {
		conn, err := w.lis.Accept()
		if err != nil {
			if errors.Is(err, transport.ErrClosed) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func(conn transport.Conn) {
			defer wg.Done()
			isSession, err := w.serveConn(conn)
			if !isSession {
				// A link of some session (ownership went to it), or a
				// connection that never sent an Assign — a liveness probe,
				// a port scan: serveConn closed what nobody owns, and
				// neither counts toward the session budget.
				if err != nil {
					w.logf("connection dropped: %v", err)
				}
				return
			}
			if err != nil {
				w.logf("session failed: %v", err)
			}
			conn.Close()
			if w.cfg.Sessions <= 0 {
				return
			}
			mu.Lock()
			if err == nil || !w.cfg.Rejoin {
				counted++
			}
			reached := counted >= w.cfg.Sessions
			mu.Unlock()
			if reached {
				// Session budget spent: stop accepting; Serve returns nil.
				w.lis.Close()
			}
		}(conn)
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// hostedDevice is one pipeline device resident on this worker.
type hostedDevice struct {
	rank   int32
	member engine.Member
	link   *clusterLink
	ring   *ringLink // ring-topology wrapper; nil in hub sessions
	start  int       // first step to run (restored step + 1, else 0)
}

// serveConn performs the shared accept handshake — a synchronous Hello,
// then the first frame — and dispatches on it: Assign opens a coordinator
// session, PeerHello hands the raw connection to the session hosting the
// target device. It reports whether the connection opened a session (which
// the caller closes and counts toward the session budget); a connection
// that never sent an Assign is not one.
func (w *Worker) serveConn(conn transport.Conn) (bool, error) {
	// The Hello is sent synchronously: if this turns out to be a peer
	// connection its outbox must be created by the owning session, and two
	// writers on one connection would race.
	err := conn.Send(wire.Control(wire.KindHello, wire.NoDev, wire.NoStep))
	var first *wire.Frame
	if err == nil {
		first, err = conn.Recv()
	}
	switch {
	case err != nil:
		err = fmt.Errorf("cluster: connection closed before its first frame: %w", err)
	case first.Kind == wire.KindPeerHello:
		if err = w.acceptPeerConn(conn, first); err == nil {
			return false, nil
		}
	case first.Kind == wire.KindAssign:
		return true, w.serveSession(conn, first)
	default:
		err = fmt.Errorf("cluster: first frame is %v, want an assign or a peer hello", first.Kind)
	}
	conn.Close()
	return false, err
}

// acceptPeerConn routes an inbound hello connection to the session hosting
// its target device. A fresh link waits briefly for that session to
// register — the sibling worker may have received its Assign first and
// dialed ahead; a resumed one names a session that is there or is gone.
func (w *Worker) acceptPeerConn(conn transport.Conn, first *wire.Frame) error {
	h, err := wire.DecodePeerHello(first)
	if err != nil {
		return err
	}
	wait := peerAcceptTimeout
	if h.Resume {
		wait = 0
	}
	m, err := w.awaitHost(h.Epoch, h.To, wait)
	if err != nil {
		return fmt.Errorf("cluster: link %d->%d: %w", h.From, h.To, err)
	}
	return m.accept(h, conn)
}

func (w *Worker) awaitHost(epoch int64, dev int, wait time.Duration) (*mesh, error) {
	deadline := time.Now().Add(wait)
	timer := time.AfterFunc(wait, func() {
		w.hostMu.Lock()
		w.hostCond.Broadcast()
		w.hostMu.Unlock()
	})
	defer timer.Stop()
	w.hostMu.Lock()
	defer w.hostMu.Unlock()
	for {
		if m := w.hosts[hostKey{epoch, dev}]; m != nil {
			return m, nil
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("no session hosts device %d under epoch %d", dev, epoch)
		}
		w.hostCond.Wait()
	}
}

func (w *Worker) registerHosts(m *mesh, devices []int) {
	w.hostMu.Lock()
	for _, d := range devices {
		w.hosts[hostKey{m.epoch, d}] = m
	}
	w.hostCond.Broadcast()
	w.hostMu.Unlock()
}

func (w *Worker) unregisterHosts(m *mesh, devices []int) {
	w.hostMu.Lock()
	for _, d := range devices {
		delete(w.hosts, hostKey{m.epoch, d})
	}
	w.hostMu.Unlock()
}

func (w *Worker) serveSession(conn transport.Conn, first *wire.Frame) (err error) {
	assign, err := wire.DecodeAssign(first)
	if err != nil {
		return fmt.Errorf("cluster: opening session: %w", err)
	}
	if len(assign.Devices) == 0 {
		return fmt.Errorf("cluster: opening session: assign hosts no devices")
	}

	// The control link. Under a retry policy it is resumable — the
	// coordinator redials after a break, the worker's accept path routes its
	// resume hello back here through the host registry, and the unacked tail
	// replays; frame counting starts after the Assign, identically on both
	// sides. It closes gracefully whatever the session's fate: its last
	// words — a LinkDown report, the Done frames — are the coordinator's.
	links := linkPolicy{epoch: assign.Epoch, net: w.cfg.Dial, retry: assign.Run.Retry,
		logf: w.logf, metrics: w.cfg.Metrics}
	control := links.endpoint(conn, assign.Devices[0], int(wire.NoDev),
		fmt.Sprintf("session %v control link", assign.Devices), "")
	defer control.close(true)
	out := control.out
	// Liveness beacon, when the coordinator asked for one. It starts
	// before the replica rebuild: device construction (and resume-state
	// install) can take longer than the silence timeout, and a session
	// declared dead during its own setup would burn a restart for nothing.
	hbStop := make(chan struct{})
	defer close(hbStop)
	if assign.Run.HeartbeatMillis > 0 {
		interval := time.Duration(assign.Run.HeartbeatMillis) * time.Millisecond
		go func() {
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-ticker.C:
					out.Enqueue(wire.Control(wire.KindHeartbeat, wire.NoDev, wire.NoStep))
				}
			}
		}()
	}

	// Observability: the coordinator's Assign or the worker's own TraceDir
	// turns span recording on for this session. Spans drain at step
	// boundaries into the coordinator stream (Run.Trace) and into a
	// session-local collector (TraceDir), which is dumped as a Chrome
	// trace file once the session completes.
	var tracer *obs.Tracer
	var collect *obs.Collector
	if assign.Run.Trace || w.cfg.TraceDir != "" {
		tracer = obs.NewTracer(true)
		if w.cfg.TraceDir != "" {
			collect = obs.NewCollector()
		}
	}
	w.cfg.Metrics.Add("sessions_started", 1)

	devices, err := w.buildDevices(assign, out, tracer, w.spanSink(collect))
	if err != nil {
		return err
	}
	// DecodeAssign guarantees the states, when present, name exactly the
	// hosted devices.
	for _, st := range assign.States {
		d := findDevice(devices, int32(st.Dev))
		if err := installDeviceState(d, st); err != nil {
			return err
		}
		d.start = st.Step + 1
	}
	w.logf("assigned %d device(s) of plan %q, %d restored from the coordinator's cut: %s",
		len(devices), assign.Plan.Name, len(assign.States), assign.Plan.Describe())

	// Become reachable: register the hosted devices so a resumed control
	// link — and, under the ring, sibling sessions' dials — find this
	// session. Ring topology then establishes the peer mesh before any
	// device loop runs, and wraps each device's link so activations and
	// gradient reductions travel worker-to-worker.
	m := newMesh(links, assign.Peers, control)
	defer func() { m.close(err == nil) }()
	defer w.unregisterHosts(m, assign.Devices)
	if assign.Run.Topology == "ring" {
		if err := w.establishMesh(m, assign, devices); err != nil {
			return err
		}
		w.logf("peer mesh established for devices %v (epoch %d)", assign.Devices, assign.Epoch)
	} else {
		w.registerHosts(m, assign.Devices)
	}
	// failAll wakes every device loop of the session, whichever inbox it is
	// blocked on: a device must not outlive its session, nor a sibling.
	failAll := func(err error) {
		for _, d := range devices {
			d.link.in.fail(err)
		}
		m.fail(err)
	}

	// Router: demux inbound frames to device inboxes until the
	// coordinator drains the session or the connection dies.
	drained := make(chan struct{})
	routerErr := make(chan error, 1)
	go func() {
		for {
			f, err := control.conn.Recv()
			if err != nil {
				failAll(fmt.Errorf("cluster: session connection lost: %w", err))
				routerErr <- err
				return
			}
			switch {
			case f.Kind == wire.KindDrain:
				if control.res != nil {
					// The coordinator is done with this session; its
					// imminent close is deliberate, not a fault to absorb.
					control.res.Retire()
				}
				close(drained)
				routerErr <- nil
				return
			case f.Kind == wire.KindRepartition:
				// Planned supersession: the coordinator is cutting this
				// placement at a committed step boundary and will re-place
				// everything under a rebalanced plan. The session ends like a
				// failure (device loops unwind, nothing more is sent) but the
				// cause is deliberate; with Rejoin set the worker stays up to
				// accept its slice of the new placement.
				superseded := fmt.Errorf("cluster: session superseded by repartition (cut after step %d)", f.Step)
				failAll(superseded)
				routerErr <- superseded
				return
			case f.Kind == wire.KindRelay:
				// A peer frame that crossed a degraded edge: it belongs in
				// the peer inbox the direct link would have filled.
				if err := m.unwrap(f); err != nil {
					failAll(err)
					routerErr <- err
					return
				}
			case f.Dev == wire.NoDev:
				// Broadcast: every hosted device gets it.
				for _, d := range devices {
					d.link.in.put(f)
				}
			default:
				d := findDevice(devices, f.Dev)
				if d == nil {
					err := fmt.Errorf("cluster: frame %v for device %d not hosted here", f.Kind, f.Dev)
					failAll(err)
					routerErr <- err
					return
				}
				d.link.in.put(f)
			}
		}
	}()

	// Run every hosted device loop. A device that fails (transport loss
	// or a panic on a decodable-but-invalid frame) poisons only this
	// session: siblings are woken with the error and the caller closes
	// the connection, so the coordinator observes the failure too.
	var wg sync.WaitGroup
	errs := make([]error, len(devices))
	for i, d := range devices {
		wg.Add(1)
		go func(i int, d *hostedDevice) {
			defer wg.Done()
			errs[i] = runDevice(d, assign.Run.Steps, out)
			if errs[i] != nil {
				failAll(errs[i])
			}
		}(i, d)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := out.Err(); err != nil {
		return err
	}
	// Wait for the coordinator to confirm it consumed everything.
	if err := <-routerErr; err != nil {
		return err
	}
	<-drained
	for _, d := range devices {
		w.cfg.Metrics.Add("device_steps", int64(assign.Run.Steps-d.start))
	}
	w.cfg.Metrics.Add("sessions_completed", 1)
	if collect != nil {
		path := filepath.Join(w.cfg.TraceDir,
			fmt.Sprintf("trace-epoch%d-dev%d.json", assign.Epoch, devices[0].rank))
		order, byTrack := collect.Tracks()
		if err := obs.WriteChromeTraceFile(path, order, byTrack); err != nil {
			w.logf("trace dump failed: %v", err)
		} else {
			w.logf("session trace (%s) written to %s", collect, path)
		}
	}
	w.logf("session complete (%d steps)", assign.Run.Steps)
	return nil
}

// spanSink returns the worker-side consumer of a session's drained span
// batches: the session's trace-dump collector (nil without TraceDir) and
// the worker's metrics, which is also where span loss becomes visible.
func (w *Worker) spanSink(collect *obs.Collector) func(track string, spans []obs.Span, dropped int64) {
	return func(track string, spans []obs.Span, dropped int64) {
		if collect != nil {
			collect.Add(track, spans)
			collect.AddDropped(dropped)
		}
		for _, s := range spans {
			w.cfg.Metrics.Add("busy_"+s.Cat.String()+"_ns", s.Dur)
		}
		if dropped > 0 {
			w.cfg.Metrics.Add("spans_dropped", dropped)
		}
	}
}

// runDevice drives one hosted device's training loop (from its start
// step, nonzero when resuming) and, for group leaders, reports the
// trained student weights; replicas are bit-identical, so one copy
// suffices. All panics are contained to an error.
func runDevice(d *hostedDevice, steps int, out *outbox) (err error) {
	defer recoverSession(&err)
	var link engine.DeviceLink = d.link
	if d.ring != nil {
		link = d.ring
	}
	engine.RunMemberFrom(d.member, d.start, steps, link)
	// Spans drain at every FinishStep; this catches a zero-step session's
	// (or a future post-loop instrumentation's) leftovers.
	d.link.flushSpans()
	if d.member.Rank == 0 {
		var params []*tensor.Tensor
		for _, pair := range d.member.Pairs {
			for _, p := range pair.Student.Params() {
				params = append(params, p.Value)
			}
		}
		out.Enqueue(wire.EncodeTensors(wire.KindFinalParams, d.rank, wire.NoStep, params))
	}
	out.Enqueue(wire.Control(wire.KindDone, d.rank, wire.NoStep))
	return nil
}

// buildDevices rebuilds a workbench replica for every hosted device rank
// and wires up its member state and transport link. A non-nil tracer
// attaches one span track per hosted device ("dev<rank>", matching the
// in-process engine's naming); sink receives the drained batches on the
// worker side.
func (w *Worker) buildDevices(assign *wire.Assign, out *outbox, tracer *obs.Tracer, sink func(string, []obs.Span, int64)) ([]*hostedDevice, error) {
	if err := assign.Plan.Validate(assign.Plan.NumDevices(), len(assign.Snapshot.Student)); err != nil {
		return nil, err
	}
	// Reject a malformed session policy up front instead of silently
	// hosting a session whose recovery contract cannot hold.
	if err := assign.Run.Snap.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: assign snapshot policy: %w", err)
	}
	var backend tensor.Backend
	if assign.Run.Backend != "" {
		be, ok := tensor.Lookup(assign.Run.Backend)
		if !ok {
			return nil, fmt.Errorf("cluster: assign names unknown backend %q", assign.Run.Backend)
		}
		backend = be
	}
	if w.cfg.Backend != nil {
		backend = w.cfg.Backend
	}
	devices := make([]*hostedDevice, 0, len(assign.Devices))
	var inputs []*tensor.Tensor // the first group's schedule, resolved once per session
	for _, rank := range assign.Devices {
		gi := assign.Plan.GroupOf(rank)
		if gi < 0 {
			return nil, fmt.Errorf("cluster: hosted device %d is not in plan %q", rank, assign.Plan.Name)
		}
		group := assign.Plan.Groups[gi]
		j := -1
		for idx, d := range group.Devices {
			if d == rank {
				j = idx
			}
		}
		// Each member trains a private, bit-identical replica: rebuild
		// from the deterministic spec, then overwrite the parameters with
		// the coordinator's snapshot.
		wb, err := BuildWorkbench(assign.Spec)
		if err != nil {
			return nil, err
		}
		if err := InstallSnapshot(wb, assign.Snapshot); err != nil {
			return nil, err
		}
		if backend != nil {
			wb.SetBackend(backend)
		}
		pairs := make([]distill.Pair, len(group.Blocks))
		opts := make([]*nn.SGD, len(group.Blocks))
		for bi, b := range group.Blocks {
			pairs[bi] = wb.Pairs[b]
			opts[bi] = nn.NewSGD(assign.Run.LR, assign.Run.Momentum, 0)
		}
		d := &hostedDevice{
			rank: int32(rank),
			member: engine.Member{Group: gi, Rank: j, GroupSize: group.Split(),
				Pairs: pairs, Opts: opts},
			link: &clusterLink{dev: int32(rank),
				firstGroup: gi == 0,
				lastGroup:  gi == len(assign.Plan.Groups)-1,
				dpu:        assign.Run.DPU,
				in:         newInbox(), out: out},
		}
		if tracer != nil {
			d.link.trace = tracer.NewTrack(fmt.Sprintf("dev%d", rank))
			d.link.shipSpans = assign.Run.Trace
			d.link.sink = sink
			d.member.Trace = d.link.trace
		}
		// Only each group's rank 0 snapshots: replicas are bit-identical
		// after every step, so one copy carries the whole group. The
		// interval gating lives in the link's FinishStep.
		if assign.Run.Snap.Enabled() && j == 0 {
			d.link.snapshot = deviceSnapshotter(d)
			d.link.snap = assign.Run.Snap
		}
		if gi == 0 {
			if inputs == nil {
				if inputs, err = group0Inputs(assign); err != nil {
					return nil, err
				}
			}
			d.link.inputs = inputs
		}
		devices = append(devices, d)
	}
	return devices, nil
}

// establishMesh wires a ring session's peer data plane: it registers the
// hosted devices so sibling dials can find them, dials every pair whose
// lower-ranked device lives elsewhere (higher rank dials lower — pairs on
// the same worker, or even the same session, dial through the network
// identically), waits for the inbound half, and wraps each hosted device
// in a ringLink over its endpoints. Degraded pairs never dial: their
// endpoints cross the coordinator instead.
func (w *Worker) establishMesh(m *mesh, assign *wire.Assign, devices []*hostedDevice) error {
	if w.cfg.Dial == nil {
		return fmt.Errorf("cluster: ring session needs a dial network (WorkerConfig.Dial)")
	}
	if nDev := assign.Plan.NumDevices(); len(assign.Peers) != nDev {
		return fmt.Errorf("cluster: ring assign names %d peer addresses for %d devices", len(assign.Peers), nDev)
	}
	degraded := make(map[pairKey]bool)
	for _, e := range assign.DegradedEdges() {
		degraded[pairKey{e[0], e[1]}] = true
		degraded[pairKey{e[1], e[0]}] = true
	}
	var dials []pairKey
	for _, d := range devices {
		local := int(d.rank)
		for _, remote := range peerRemotes(assign.Plan, local) {
			switch {
			case degraded[pairKey{local, remote}]:
				m.relay(local, remote)
			case local > remote:
				dials = append(dials, pairKey{local, remote})
			default:
				m.pending[pairKey{local, remote}] = true
			}
		}
	}
	// Register before dialing out: two sessions establishing their meshes
	// concurrently must each find the other's hosts already routable, or
	// the dial phases could mutually time out.
	w.registerHosts(m, assign.Devices)
	deadline := time.Now().Add(meshTimeout)
	for _, dl := range dials {
		if err := m.dialPeer(dl.local, dl.remote, deadline); err != nil {
			return err
		}
	}
	if err := m.waitAccepted(deadline); err != nil {
		return err
	}
	for _, d := range devices {
		group, prev, next := peerSets(assign.Plan, int(d.rank))
		d.ring = &ringLink{clusterLink: d.link,
			rank: d.member.Rank, k: d.member.GroupSize,
			group: group, prev: prev, next: next, peers: m.peers(int(d.rank))}
	}
	return nil
}

// group0Inputs resolves the batch schedule a session's first-group
// members read from. With a Run.Data recipe the session regenerates the
// dataset locally — bit-identical by the recipe's determinism, and zero
// input bytes on any connection; otherwise it uses the schedule carried
// in the Assign. A session asked to run steps it has no batches for can
// only fail later, so short schedules are rejected here.
func group0Inputs(assign *wire.Assign) ([]*tensor.Tensor, error) {
	xs := assign.Inputs
	if ds := assign.Run.Data; ds.N > 0 {
		batches, err := ds.Batches()
		if err != nil {
			return nil, err
		}
		xs = make([]*tensor.Tensor, len(batches))
		for i, b := range batches {
			xs[i] = b.X
		}
	}
	if len(xs) < assign.Run.Steps {
		return nil, fmt.Errorf("cluster: session has %d input batches for %d steps", len(xs), assign.Run.Steps)
	}
	return xs, nil
}

// deviceSnapshotter returns the closure that captures a device's
// post-step recovery state: every student parameter and its optimizer
// velocity (zeros when momentum has not touched a parameter yet), in the
// same flattened order the coordinator validates against.
func deviceSnapshotter(d *hostedDevice) func(step int) *wire.Frame {
	return func(step int) *wire.Frame {
		var params, vels []*tensor.Tensor
		for bi, pair := range d.member.Pairs {
			for _, p := range pair.Student.Params() {
				params = append(params, p.Value)
				v := d.member.Opts[bi].Velocity(p)
				if v == nil {
					v = tensor.New(p.Value.Shape()...)
				}
				vels = append(vels, v)
			}
		}
		// Encoding copies the data immediately, so sharing the live
		// tensors here is safe: the next step's mutations happen after
		// this frame's bytes are fixed.
		return wire.EncodeDeviceSnapshot(d.rank, int32(step), params, vels)
	}
}

// installDeviceState restores a restarted device to its snapshot: student
// parameters and optimizer velocities as they were right after the
// snapshot's step.
func installDeviceState(d *hostedDevice, st wire.DeviceState) error {
	var params []*nn.Param
	var opts []*nn.SGD
	for bi, pair := range d.member.Pairs {
		for _, p := range pair.Student.Params() {
			params = append(params, p)
			opts = append(opts, d.member.Opts[bi])
		}
	}
	if len(st.Params) != len(params) {
		return fmt.Errorf("cluster: restart state for device %d has %d params, replica has %d",
			d.rank, len(st.Params), len(params))
	}
	for i, p := range params {
		if !st.Params[i].SameShape(p.Value) || !st.Velocity[i].SameShape(p.Value) {
			return fmt.Errorf("cluster: restart state for device %d param %d shape %v/%v, want %v",
				d.rank, i, st.Params[i].Shape(), st.Velocity[i].Shape(), p.Value.Shape())
		}
		p.Value.CopyFrom(st.Params[i])
		// The decoded velocity tensor is private to this frame; the
		// optimizer takes ownership and mutates it in place from here on.
		opts[i].SetVelocity(p, st.Velocity[i])
	}
	return nil
}

func findDevice(devices []*hostedDevice, rank int32) *hostedDevice {
	for _, d := range devices {
		if d.rank == rank {
			return d
		}
	}
	return nil
}

var _ engine.DeviceLink = (*clusterLink)(nil)
var _ engine.StepFinisher = (*clusterLink)(nil)
