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

	// hosts routes accepted peer connections to the session hosting the
	// target device, keyed by run epoch so connections from a superseded
	// attempt can never reach a fresh mesh. hostCond wakes peer connections
	// that arrived before their session registered.
	hostMu   sync.Mutex
	hostCond *sync.Cond
	hosts    map[hostKey]*mesh

	// sessions routes redialed control connections (KindSessionResume) to
	// the live session's resumable link, keyed by the Assign's session id.
	sessMu   sync.Mutex
	sessions map[int64]*transport.Resumable
}

// hostKey identifies one hosted device within one run attempt.
type hostKey struct {
	epoch int64
	dev   int
}

// NewWorker wraps a bound listener in a worker server.
func NewWorker(lis transport.Listener, cfg WorkerConfig) *Worker {
	w := &Worker{lis: lis, cfg: cfg, hosts: make(map[hostKey]*mesh),
		sessions: make(map[int64]*transport.Resumable)}
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
			if err != nil {
				w.logf("session failed: %v", err)
			}
			if !isSession {
				// A peer-mesh connection: ownership went to the hosting
				// session's mesh (or serveConn closed it on error), and it
				// never counts toward the session budget.
				return
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
// target device. It reports whether the connection was a session
// connection (which the caller closes and counts toward the session
// budget; peer connections are owned by their mesh).
func (w *Worker) serveConn(conn transport.Conn) (bool, error) {
	// The Hello is sent synchronously: if this turns out to be a peer
	// connection its outbox must be created by the owning session, and two
	// writers on one connection would race.
	if err := conn.Send(wire.Control(wire.KindHello, wire.NoDev, wire.NoStep)); err != nil {
		return true, fmt.Errorf("cluster: sending hello: %w", err)
	}
	first, err := conn.Recv()
	if err != nil {
		return true, fmt.Errorf("cluster: reading assign: %w", err)
	}
	switch first.Kind {
	case wire.KindPeerHello:
		err := w.acceptPeerConn(conn, first)
		if err != nil {
			conn.Close()
		}
		return false, err
	case wire.KindSessionResume:
		// A redialed control connection: ownership goes to the live
		// session's resumable link, which echoes the handshake and
		// replays the unacked tail.
		err := w.adoptSessionConn(conn, first)
		if err != nil {
			conn.Close()
		}
		return false, err
	}
	return true, w.serveSession(conn, first)
}

// adoptSessionConn re-attaches a redialed coordinator control connection
// to the session it resumes.
func (w *Worker) adoptSessionConn(conn transport.Conn, first *wire.Frame) error {
	sr, err := wire.DecodeSessionResume(first)
	if err != nil {
		return err
	}
	w.sessMu.Lock()
	res := w.sessions[sr.Session]
	w.sessMu.Unlock()
	if res == nil {
		return fmt.Errorf("cluster: resume for unknown session %d", sr.Session)
	}
	return res.Adopt(conn, sr.Recvd, func(recvd int64) *wire.Frame {
		return wire.EncodeSessionResume(wire.SessionResume{Session: sr.Session, Recvd: recvd})
	})
}

func (w *Worker) registerSession(id int64, res *transport.Resumable) {
	w.sessMu.Lock()
	w.sessions[id] = res
	w.sessMu.Unlock()
}

func (w *Worker) unregisterSession(id int64) {
	w.sessMu.Lock()
	delete(w.sessions, id)
	w.sessMu.Unlock()
}

// acceptPeerConn routes an inbound peer connection to the session hosting
// its target device, waiting briefly for that session to register — the
// sibling worker may have received its Assign first and dialed ahead.
func (w *Worker) acceptPeerConn(conn transport.Conn, first *wire.Frame) error {
	h, err := wire.DecodePeerHello(first)
	if err != nil {
		return err
	}
	m, err := w.awaitHost(h.Epoch, h.To)
	if err != nil {
		return fmt.Errorf("cluster: peer link %d->%d: %w", h.From, h.To, err)
	}
	if h.Resume {
		return m.adoptPeer(h, conn)
	}
	return m.acceptPeer(h, conn)
}

func (w *Worker) awaitHost(epoch int64, dev int) (*mesh, error) {
	deadline := time.Now().Add(peerAcceptTimeout)
	timer := time.AfterFunc(peerAcceptTimeout, func() {
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

func (w *Worker) registerHosts(epoch int64, devices []*hostedDevice, m *mesh) {
	w.hostMu.Lock()
	for _, d := range devices {
		w.hosts[hostKey{epoch, int(d.rank)}] = m
	}
	w.hostCond.Broadcast()
	w.hostMu.Unlock()
}

func (w *Worker) unregisterHosts(epoch int64, devices []*hostedDevice) {
	w.hostMu.Lock()
	for _, d := range devices {
		delete(w.hosts, hostKey{epoch, int(d.rank)})
	}
	w.hostMu.Unlock()
}

func (w *Worker) serveSession(conn transport.Conn, first *wire.Frame) (err error) {
	assign, err := wire.DecodeAssign(first)
	if err != nil {
		return fmt.Errorf("cluster: opening session: %w", err)
	}

	// Transient-fault absorption: under a retry policy the control link
	// becomes resumable — the coordinator redials after a break, the
	// worker's accept path routes the KindSessionResume handshake back
	// here, and the unacked tail replays. Frame counting starts after the
	// Assign, identically on both sides.
	link := conn
	var res *transport.Resumable
	if assign.Run.Retry.Enabled() && assign.Session != 0 {
		res = transport.NewResumable(conn, retryPolicy(assign.Run.Retry), transport.ResumableOptions{
			Name: fmt.Sprintf("session %d control link", assign.Session),
			Logf: w.cfg.Logf,
			OnAbsorb: func(replayed int) {
				w.cfg.Metrics.Add("link_faults_absorbed", 1)
				w.cfg.Metrics.Add("link_frames_replayed", int64(replayed))
			},
		})
		link = res
		w.registerSession(assign.Session, res)
		defer w.unregisterSession(assign.Session)
		defer res.Close()
	}
	out := newOutbox(link)
	defer out.Close()
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

	// Ring topology: establish the peer mesh before any device loop runs,
	// and wrap each device's link so activations and gradient reductions
	// travel worker-to-worker.
	var m *mesh
	if assign.Run.Topology == "ring" {
		m, err = w.establishMesh(assign, devices)
		if err != nil {
			return err
		}
		defer w.unregisterHosts(assign.Epoch, devices)
		defer func() { m.close(err == nil) }()
		w.logf("peer mesh established for devices %v (epoch %d)", assign.Devices, assign.Epoch)
	}

	// Router: demux inbound frames to device inboxes until the
	// coordinator drains the session or the connection dies.
	drained := make(chan struct{})
	routerErr := make(chan error, 1)
	go func() {
		for {
			f, err := link.Recv()
			if err != nil {
				lost := fmt.Errorf("cluster: session connection lost: %w", err)
				for _, d := range devices {
					d.link.in.fail(lost)
				}
				if m != nil {
					// A device blocked on a peer frame must not outlive its
					// coordinator session.
					m.fail(lost)
				}
				routerErr <- err
				return
			}
			switch {
			case f.Kind == wire.KindDrain:
				if res != nil {
					// The coordinator is done with this session; its
					// imminent close is deliberate, not a fault to absorb.
					res.Retire()
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
				for _, d := range devices {
					d.link.in.fail(superseded)
				}
				if m != nil {
					m.fail(superseded)
				}
				routerErr <- superseded
				return
			case f.Dev == wire.NoDev:
				// Broadcast: every hosted device gets it.
				for _, d := range devices {
					d.link.in.put(f)
				}
			default:
				d := findDevice(devices, f.Dev)
				if d == nil {
					for _, dd := range devices {
						dd.link.in.fail(fmt.Errorf("cluster: frame %v for device %d not hosted here", f.Kind, f.Dev))
					}
					routerErr <- fmt.Errorf("cluster: frame for unhosted device %d", f.Dev)
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
				for _, dd := range devices {
					dd.link.in.fail(errs[i])
				}
				if m != nil {
					// Wake siblings blocked on peer frames too.
					m.fail(errs[i])
				}
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
		if err := obs.WriteChromeTraceFile(path, collect); err != nil {
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
			w.cfg.Metrics.Add("busy_"+obs.CategoryName(s.Cat)+"_ns", s.Dur)
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
	nDev := 0
	for _, g := range assign.Plan.Groups {
		nDev += g.Split()
	}
	if err := assign.Plan.Validate(nDev, len(assign.Snapshot.Student)); err != nil {
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
// in a ringLink over its endpoints.
func (w *Worker) establishMesh(assign *wire.Assign, devices []*hostedDevice) (*mesh, error) {
	if w.cfg.Dial == nil {
		return nil, fmt.Errorf("cluster: ring session needs a dial network (WorkerConfig.Dial)")
	}
	nDev := 0
	for _, g := range assign.Plan.Groups {
		nDev += g.Split()
	}
	if len(assign.Peers) != nDev {
		return nil, fmt.Errorf("cluster: ring assign names %d peer addresses for %d devices", len(assign.Peers), nDev)
	}
	plan := make([]groupInfo, len(assign.Plan.Groups))
	for gi, g := range assign.Plan.Groups {
		plan[gi] = groupInfo{devices: g.Devices}
	}
	m := newMesh(assign.Epoch, assign.Peers)
	if assign.Run.Retry.Enabled() {
		m.retry = assign.Run.Retry
		m.net = w.cfg.Dial
		m.logf = w.cfg.Logf
		m.onAbsorb = func(replayed int) {
			w.cfg.Metrics.Add("link_faults_absorbed", 1)
			w.cfg.Metrics.Add("link_frames_replayed", int64(replayed))
		}
		// A peer link whose reconnect budget is exhausted is reported to
		// the coordinator so it can degrade the edge to hub relay instead
		// of burning a restart. The session outbox is safe to use from the
		// reader goroutine: Enqueue never blocks.
		sessionOut := devices[0].link.out
		m.linkDown = func(local, remote int) {
			w.cfg.Metrics.Add("peer_links_down", 1)
			w.logf("peer link %d<->%d exhausted its reconnect budget; reporting for degrade", local, remote)
			sessionOut.Enqueue(wire.EncodeLinkDown(local, remote))
		}
	}
	// Degraded edges never dial: their traffic crosses the coordinator
	// hub relay instead.
	degraded := make(map[pairKey]bool)
	for _, e := range assign.DegradedEdges() {
		degraded[pairKey{e[0], e[1]}] = true
		degraded[pairKey{e[1], e[0]}] = true
	}
	type dialTask struct{ local, remote int }
	var dials []dialTask
	for _, d := range devices {
		local := int(d.rank)
		for _, remote := range peerRemotes(plan, local) {
			if degraded[pairKey{local, remote}] {
				continue
			}
			if local > remote {
				dials = append(dials, dialTask{local, remote})
			} else {
				m.expectAccept(local, remote)
			}
		}
	}
	// Register before dialing out: two sessions establishing their meshes
	// concurrently must each find the other's hosts already routable, or
	// the dial phases could mutually time out.
	w.registerHosts(assign.Epoch, devices, m)
	deadline := time.Now().Add(meshTimeout)
	for _, dl := range dials {
		if _, err := m.dialPeer(w.cfg.Dial, dl.local, dl.remote, deadline); err != nil {
			w.unregisterHosts(assign.Epoch, devices)
			m.close(false)
			return nil, err
		}
	}
	if err := m.waitAccepted(deadline); err != nil {
		w.unregisterHosts(assign.Epoch, devices)
		m.close(false)
		return nil, err
	}
	for _, d := range devices {
		local := int(d.rank)
		group, prev, next := peerSets(plan, local)
		peers := make(map[int]*peerEndpoint)
		var degSet map[int]bool
		for _, remote := range peerRemotes(plan, local) {
			if degraded[pairKey{local, remote}] {
				if degSet == nil {
					degSet = make(map[int]bool)
				}
				degSet[remote] = true
				continue
			}
			peers[remote] = m.endpoint(local, remote)
		}
		// Any degraded edge inside the group pulls every member's
		// all-reduce back to the coordinator fold — the group must agree
		// on the path, and members off the broken edge can't know their
		// siblings lost it.
		groupHub := false
		for i := 0; i < len(group) && !groupHub; i++ {
			for j := i + 1; j < len(group); j++ {
				if degraded[pairKey{group[i], group[j]}] {
					groupHub = true
					break
				}
			}
		}
		d.ring = &ringLink{clusterLink: d.link,
			rank: d.member.Rank, k: d.member.GroupSize,
			group: group, prev: prev, next: next, peers: peers,
			degraded: degSet, groupHub: groupHub}
	}
	return m, nil
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

// peerRemotes flattens peerSets into the remote device ranks one local
// device holds links to.
func peerRemotes(plan []groupInfo, dev int) []int {
	group, prev, next := peerSets(plan, dev)
	var out []int
	for _, r := range group {
		if r != dev {
			out = append(out, r)
		}
	}
	out = append(out, prev...)
	out = append(out, next...)
	return out
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
