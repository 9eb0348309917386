package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/engine"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

// Session links: what a worker session is reachable through, and the
// device-to-device data plane every session runs.
//
// Every session has a control link to the coordinator and one peer
// endpoint per device pair that communicates — every pair within a split
// group (reduce-scatter contributions plus the all-gather ring) and every
// (member, member) pair across adjacent groups (activation forwarding).
// The Assign says how each edge is carried. A direct edge is a link of its
// own: the higher-ranked device's session dials the lower device's worker
// (found in the placement directory, Assign.Peers); device pairs hosted on
// the same worker (or even the same session) still dial through the
// network, so every pair is wired identically. A relayed edge — every edge
// under the hub, a degraded one under the ring — is not dialed: its
// endpoints send through the control link in KindRelay envelopes, and
// nothing above the endpoint can tell.
//
// Handshake (linkPolicy.open): dialer connects, consumes the worker's
// Hello, sends a PeerHello{Epoch, From, To}; the accepting worker routes
// the connection to the session hosting device To (every session registers
// its devices under the run epoch, so a stale connection from a previous
// attempt can never wire into a new mesh), which echoes the PeerHello back.
// Only then does the dialer treat the link as established. A broken link
// is re-opened the same way with Resume set and the dialer's receive count
// — a peer link by the session that dialed it, the control link by the
// coordinator, which names itself From: wire.NoDev.

const (
	// peerAcceptTimeout bounds how long an accepted connection waits for the
	// session hosting its target device to register.
	peerAcceptTimeout = 5 * time.Second
	// meshTimeout bounds a session's whole mesh-establishment phase.
	meshTimeout = 10 * time.Second
	// ackWindow is how many steps an activation sender may run ahead of
	// the slowest downstream consumer's acks under DPU.
	ackWindow = 2
)

// pairKey identifies a directed endpoint: the local device's view of its
// link to the remote device.
type pairKey struct{ local, remote int }

// mesh is one session's set of links: its control endpoint and its peer
// endpoints. The worker's accept path hands incoming peer hellos to accept
// (on the listener's handler goroutine); the session's establish phase
// dials the outbound half and blocks in waitAccepted until every expected
// endpoint exists.
type mesh struct {
	linkPolicy
	dir     []string  // peers directory: device rank -> worker address
	control *endpoint // the session's link to the coordinator
	dials   []pairKey // the direct links this session dials

	// failed closes when fail first runs — the session's control link or a
	// device is gone — so no peer still to dial in or to be dialed matters.
	failed chan struct{}

	mu      sync.Mutex
	cond    *sync.Cond
	eps     map[pairKey]*endpoint
	pending map[pairKey]bool // endpoints accept must still deliver
	closed  bool
	err     error // why the mesh failed: every endpoint, present or still to come, fails with it
	readers sync.WaitGroup
}

// newMesh lays out the peer edges of a session's hosted devices: a
// relayed edge gets its endpoint at once; a direct one is a link the
// session dials (higher rank dials lower — pairs on the same worker, or
// even the same session, dial through the network identically) or one
// it waits for.
func newMesh(links linkPolicy, assign *wire.Assign, control *endpoint) *mesh {
	m := &mesh{linkPolicy: links, dir: assign.Peers, control: control, failed: make(chan struct{}),
		eps: make(map[pairKey]*endpoint), pending: make(map[pairKey]bool)}
	m.cond = sync.NewCond(&m.mu)
	relayed := make(map[pairKey]bool)
	for _, e := range assign.RelayedEdges() {
		relayed[pairKey{e[0], e[1]}], relayed[pairKey{e[1], e[0]}] = true, true
	}
	for _, local := range assign.Devices {
		for _, remote := range peerRemotes(assign.Plan, local) {
			switch key := (pairKey{local, remote}); {
			case relayed[key]:
				m.relay(local, remote)
			case local > remote:
				m.dials = append(m.dials, key)
			default:
				m.pending[key] = true
			}
		}
	}
	return m
}

// install wraps an established peer connection as the (local, remote)
// endpoint and starts its reader, which demuxes inbound frames into the
// endpoint's inbox until the connection dies. Under a resumable link
// "dies" means terminally — transient breaks are absorbed inside Recv —
// and a budget-exhausted link is reported to the coordinator before the
// inbox fails, so it can degrade the edge instead of burning a restart
// (the control outbox is safe to use from the reader: Enqueue never
// blocks). Callers hold m.mu.
func (m *mesh) install(conn transport.Conn, local, remote int, addr string) {
	ep := m.endpoint(conn, local, remote, fmt.Sprintf("peer link %d<->%d", local, remote), addr)
	ep.in = m.inbox()
	m.eps[pairKey{local, remote}] = ep
	m.readers.Add(1)
	go func() {
		defer m.readers.Done()
		for {
			f, err := ep.conn.Recv()
			if err != nil {
				if errors.Is(err, transport.ErrLinkDown) {
					m.metrics.Add("peer_links_down", 1)
					m.logf("peer link %d<->%d exhausted its reconnect budget; reporting for degrade", local, remote)
					m.control.out.Enqueue(wire.EncodeLinkDown(local, remote))
				}
				ep.in.fail(fmt.Errorf("cluster: peer link %d<->%d lost: %w", local, remote, err))
				return
			}
			ep.in.put(f)
		}
	}()
}

// inbox makes an endpoint's inbox, failed already if the mesh failed.
// Callers hold m.mu.
func (m *mesh) inbox() *inbox {
	b := newInbox()
	if m.err != nil {
		b.fail(m.err)
	}
	return b
}

// relay installs the (local, remote) endpoint of a relayed edge: no
// connection of its own, an outbox that wraps each frame for the
// coordinator to forward, and an inbox the session's router fills.
func (m *mesh) relay(local, remote int) {
	control := m.control.out
	m.eps[pairKey{local, remote}] = &endpoint{in: m.inbox(),
		out: newOutbox(func(f *wire.Frame) error {
			control.Enqueue(wire.WrapRelay(int32(remote), f))
			return nil
		})}
}

// unwrap delivers a relayed peer frame off the control link, with the
// caller's reference, into the inbox of the relayed edge it crossed; a
// frame naming any other pair is a protocol error.
func (m *mesh) unwrap(f *wire.Frame) error {
	to := f.Dev // the envelope's; unwrapping may rewrite f in place
	inner, err := wire.UnwrapRelay(f)
	if err != nil {
		return err
	}
	m.mu.Lock()
	ep := m.eps[pairKey{int(to), int(inner.Dev)}]
	m.mu.Unlock()
	if ep == nil || ep.conn != nil {
		return fmt.Errorf("cluster: relayed %v from device %d to device %d crosses no relayed edge of this session",
			inner.Kind, inner.Dev, to)
	}
	ep.in.put(inner)
	return nil
}

// accept picks up a connection whose hello names a device this session
// hosts, and echoes the hello so the dialer knows it did. A fresh hello
// must be one of the peer links the session still expects; a resume hello
// re-attaches to the endpoint it names — the control endpoint when it
// comes from the coordinator — whose resumable layer echoes with our
// receive count and replays the unacked tail. Runs on the worker's
// connection-handler goroutine; on error the caller closes the
// connection.
func (m *mesh) accept(h wire.PeerHello, conn transport.Conn) error {
	key := pairKey{local: h.To, remote: h.From}
	echo := wire.PeerHello{Epoch: m.epoch, From: h.To, To: h.From, Resume: h.Resume}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return fmt.Errorf("cluster: mesh closed")
	}
	if h.Resume {
		ep := m.eps[key]
		m.mu.Unlock()
		if h.From == int(wire.NoDev) {
			ep = m.control
		}
		if ep == nil || ep.res == nil {
			return fmt.Errorf("cluster: resume for unknown link %d->%d", h.From, h.To)
		}
		return ep.res.Adopt(conn, h.Recvd, func(recvd int64) *wire.Frame {
			echo.Recvd = recvd
			return wire.EncodePeerHello(echo)
		})
	}
	defer m.mu.Unlock()
	if !m.pending[key] {
		return fmt.Errorf("cluster: unexpected peer link %d->%d", h.From, h.To)
	}
	// The echo travels on the raw connection, outside the stream a
	// resumable link counts; this goroutine is still its only writer.
	if err := conn.Send(wire.EncodePeerHello(echo)); err != nil {
		return fmt.Errorf("cluster: peer echo %d->%d: %w", h.To, h.From, err)
	}
	delete(m.pending, key)
	m.install(conn, h.To, h.From, "")
	m.cond.Broadcast()
	return nil
}

// dialPeer establishes the outbound half of one pair, retrying until the
// deadline — the remote session may not have received its Assign yet — or
// until the session fails.
func (m *mesh) dialPeer(local, remote int, deadline int64) error {
	addr := m.dir[remote]
	var conn transport.Conn
	err := transport.Retry(m.clock, deadline, m.failed, func() (err error) {
		conn, _, err = m.open(addr, wire.PeerHello{Epoch: m.epoch, From: local, To: remote}, deadline)
		return err
	})
	if err != nil {
		select {
		case <-m.failed:
			return fmt.Errorf("cluster: session failed while dialing peer link %d->%d: %w", local, remote, m.err)
		default:
			return fmt.Errorf("cluster: peer link %d->%d to %s not established before deadline (last error: %v)",
				local, remote, addr, err)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		conn.Close()
		return fmt.Errorf("cluster: mesh closed")
	}
	m.install(conn, local, remote, addr)
	return nil
}

// waitAccepted blocks until every expected inbound endpoint was delivered
// by the worker's accept path, or the deadline passes.
func (m *mesh) waitAccepted(deadline int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	transport.WaitCond(m.clock, m.cond, deadline, func() bool {
		return len(m.pending) == 0 || m.closed || m.err != nil
	})
	if len(m.pending) > 0 {
		missing := make([]pairKey, 0, len(m.pending))
		for k := range m.pending {
			missing = append(missing, k)
		}
		if m.err != nil {
			return fmt.Errorf("cluster: session failed while peer links %v were to dial in: %w", missing, m.err)
		}
		return fmt.Errorf("cluster: peer links %v never dialed in before deadline", missing)
	}
	return nil
}

// peers returns device local's endpoints by remote device.
func (m *mesh) peers(local int) map[int]*endpoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]*endpoint)
	for k, ep := range m.eps {
		if k.local == local {
			out[k.remote] = ep
		}
	}
	return out
}

// fail wakes every peer endpoint's waiters, fails the endpoints the mesh
// has yet to make, and stops its establishment: a dead session or device
// must not leave a sibling device blocked on a peer frame that will never
// arrive, nor a session superseded before its mesh was up waiting out its
// deadline for peers that will never come.
func (m *mesh) fail(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil {
		m.err = err
		close(m.failed)
		m.cond.Broadcast()
	}
	for _, ep := range m.eps {
		ep.in.fail(err)
	}
}

// close tears the peer endpoints down (the control endpoint outlives them:
// a relayed edge flushes into it) and joins their readers.
func (m *mesh) close(graceful bool) {
	m.mu.Lock()
	m.closed = true
	eps := make([]*endpoint, 0, len(m.eps))
	for _, ep := range m.eps {
		eps = append(eps, ep)
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	for _, ep := range eps {
		ep.close(graceful)
	}
	m.readers.Wait()
}

// peerSets enumerates the remote devices one local device communicates
// with: every other member of its own (split) group, every member of the
// previous group, and every member of the next group.
func peerSets(plan sched.Plan, dev int) (group, prev, next []int) {
	gi := plan.GroupOf(dev)
	if gi < 0 {
		return nil, nil, nil
	}
	group = plan.Groups[gi].Devices
	if gi > 0 {
		prev = plan.Groups[gi-1].Devices
	}
	if gi < len(plan.Groups)-1 {
		next = plan.Groups[gi+1].Devices
	}
	return group, prev, next
}

// peerRemotes flattens peerSets into the remote device ranks one local
// device holds links to.
func peerRemotes(plan sched.Plan, dev int) []int {
	group, prev, next := peerSets(plan, dev)
	var out []int
	for _, r := range group {
		if r != dev {
			out = append(out, r)
		}
	}
	out = append(out, prev...)
	return append(out, next...)
}

// planEdges lists every peer edge of a plan once, lower device first.
func planEdges(plan sched.Plan) [][2]int {
	var out [][2]int
	for d := 0; d < plan.NumDevices(); d++ {
		for _, r := range peerRemotes(plan, d) {
			if d < r {
				out = append(out, [2]int{d, r})
			}
		}
	}
	return out
}

// ringLink implements engine.DeviceLink for one hosted device. Its data
// plane runs over the session's peer endpoints: stage-to-stage
// activations and the intra-group all-reduce travel device to device —
// directly or relayed, which is not visible from here. Its control plane
// runs over the session's link to the coordinator: losses, barrier
// arrivals, snapshots and span batches leave through the shared control
// outbox, and barrier releases arrive through the device's inbox.
type ringLink struct {
	dev int32
	dpu bool
	in  *inbox
	out *outbox
	// snapshot, when set, encodes the device's post-step recovery state
	// (its blocks' value and velocity slabs); FinishStep ships it to the
	// coordinator after every step the session's snapshot policy covers,
	// so a restart can resume from the newest commonly covered step.
	snapshot func(step int) *wire.Frame
	snap     wire.SnapshotPolicy

	// trace, when non-nil, is the device's span track; FinishStep drains
	// it at each step boundary so span batches travel with (not instead
	// of) the session's regular traffic. shipSpans routes drained batches
	// to the coordinator over KindSpans frames; sink receives them on the
	// worker side (local trace dumps, worker metrics) together with how
	// many spans the track dropped since the previous flush. Both may be
	// active.
	trace     *obs.Track
	shipSpans bool
	sink      func(track string, spans []obs.Span, dropped int64)
	dropped   int64 // the track's drop count as of the last flush

	rank  int
	k     int
	group []int // own group's device ranks in rank order
	prev  []int // previous group's device ranks (nil for group 0)
	next  []int // next group's device ranks (nil for the last group)
	// peers holds the endpoint to each remote device.
	peers map[int]*endpoint
	// data is the run's recipe, from which a first-group device builds
	// each step's batch; later groups receive theirs from prev. input is
	// the one buffer every step's full batch lands in, and shards are its
	// rows per previous-group rank (nil until the first shards arrive).
	data   wire.DataSpec
	input  *tensor.Tensor
	shards []*tensor.Tensor

	// Activation-forward flow control under DPU: a sender may run at most
	// ackWindow steps ahead of the slowest downstream consumer's acks.
	nextAcked []int // per next-group member: highest acked step
	ackInit   bool

	// Reusable all-reduce buffers: the flattened gradients, the owned
	// segment's accumulator, and the one a received segment decodes into.
	flat   []float32
	acc    []float32
	recv   []float32
	segOff []int
}

// flushSpans drains the device's span buffer and routes the batch, which
// measures step, to the configured consumers. Called at step boundaries
// and once after the loop (step NoStep), on the device's own goroutine —
// Drain and Begin never race.
func (l *ringLink) flushSpans(step int32) {
	if l.trace == nil {
		return
	}
	spans := l.trace.Drain()
	dropped := l.trace.Dropped() - l.dropped
	l.dropped += dropped
	if len(spans) == 0 && dropped == 0 {
		return
	}
	if l.sink != nil {
		l.sink(l.trace.Name(), spans, dropped)
	}
	if l.shipSpans && len(spans) > 0 {
		l.out.Enqueue(wire.EncodeSpans(wire.SpanBatch{Dev: l.dev, Step: step, Track: l.trace.Name(), Spans: spans}))
	}
}

func (l *ringLink) ReportLosses(step int, losses []float64) {
	l.out.Enqueue(wire.EncodeLosses(l.dev, int32(step), losses))
}

func (l *ringLink) StepBarrier(step int) {
	if l.dpu {
		return
	}
	l.out.Enqueue(wire.PooledControl(wire.KindStepDone, l.dev, int32(step)))
	f, err := l.in.next(wire.KindStepGo)
	if err != nil {
		sessionFail("cluster: dev %d waiting for the release of step %d: %w", l.dev, step, err)
	}
	got := int(f.Step)
	f.Release()
	if got != step {
		sessionFail("cluster: dev %d got the release of step %d, want %d", l.dev, got, step)
	}
}

// FinishStep implements engine.StepFinisher: once the step's updates are
// installed, the device's state is exactly "trained through step" — the
// snapshot the coordinator needs to restart this device bit-identically.
// The policy's interval gates emission: with interval k only every k-th
// step ships, trading k-fold less snapshot traffic for up to k replayed
// steps on recovery.
func (l *ringLink) FinishStep(step int) {
	if l.snapshot != nil && l.snap.Covers(step) {
		r := l.trace.Begin(obs.CatSnapshot, "snapshot_write")
		f := l.snapshot(step)
		r.End()
		l.out.Enqueue(f)
	}
	l.flushSpans(int32(step))
}

// recvPeer returns the next frame of the given kind from a peer, which
// must be the step's; the caller releases it once it has read it.
func (l *ringLink) recvPeer(remote int, kind wire.Kind, step int) *wire.Frame {
	ep := l.peers[remote]
	if ep == nil {
		sessionFail("cluster: dev %d has no peer link to device %d", l.dev, remote)
	}
	f, err := ep.in.next(kind)
	if err != nil {
		sessionFail("cluster: dev %d waiting for %v from peer %d (step %d): %w", l.dev, kind, remote, step, err)
	}
	if int(f.Step) != step {
		sessionFail("cluster: dev %d got %v from peer %d for step %d, want %d", l.dev, kind, remote, f.Step, step)
	}
	return f
}

// RecvInput returns the step's full-batch input in the link's one input
// buffer: the tensor is valid until the next RecvInput. The first group
// builds it from the run's data recipe — no wire traffic at all; each
// co-hosted member has its own link, so its own buffer. A later group
// decodes the previous group's members' boundary-activation shards into
// their rows, in ascending previous-rank order, and, under DPU, acks each
// upstream endpoint.
func (l *ringLink) RecvInput(step int) *tensor.Tensor {
	if l.prev == nil {
		if l.input == nil {
			l.input = tensor.New(l.data.BatchShape()...)
		}
		if err := l.data.RowsInto(step, 0, l.input, nil); err != nil {
			sessionFail("cluster: dev %d building the input of step %d: %w", l.dev, step, err)
		}
		return l.input
	}
	for i, pd := range l.prev {
		f := l.recvPeer(pd, wire.KindOutput, step)
		t, err := wire.DecodeTensorInto(f, l.shards[i])
		f.Release()
		if err != nil {
			sessionFail("cluster: dev %d decoding peer input of step %d from device %d: %w", l.dev, step, pd, err)
		}
		if t != l.shards[i] {
			if err := l.placeShard(i, t); err != nil {
				sessionFail("cluster: dev %d step %d upstream: %w", l.dev, step, err)
			}
		}
	}
	if l.dpu {
		for _, pd := range l.prev {
			l.peers[pd].out.Enqueue(wire.PooledControl(wire.KindPeerAck, l.dev, int32(step)))
		}
	}
	return l.input
}

// placeShard copies previous-group rank i's shard, decoded apart because
// its shape is not its rows' shape, into its rows. Rank 0's shard sizes a
// new input buffer; a later rank's must hold as many elements.
func (l *ringLink) placeShard(i int, t *tensor.Tensor) error {
	if i == 0 {
		shape := append([]int(nil), t.Shape()...)
		shape[0] *= len(l.prev)
		l.input = tensor.New(shape...)
		per := t.Numel()
		for j := range l.shards {
			l.shards[j] = tensor.FromSlice(l.input.Data()[j*per:(j+1)*per], t.Shape()...)
		}
	} else if per := l.shards[0].Numel(); t.Numel() != per {
		return fmt.Errorf("shard sizes differ: rank %d has %d elements, rank 0 %d", i, t.Numel(), per)
	}
	copy(l.shards[i].Data(), t.Data())
	return nil
}

// SendOutput forwards the member's boundary activation (its shard when
// the group is split) to every member of the next group: one encoded
// frame, which every outbox holds a reference to. Under DPU it first
// waits for the acks that keep the sender within ackWindow steps; without
// DPU the global step barrier already holds every sender within a step of
// its consumers, so no ack is sent or awaited.
func (l *ringLink) SendOutput(step int, out *tensor.Tensor) {
	if l.next == nil {
		return
	}
	if l.dpu {
		l.awaitWindow(step)
	}
	f := wire.PooledTensor(wire.KindOutput, l.dev, int32(step), out)
	for range l.next[1:] {
		f.Retain()
	}
	for _, nd := range l.next {
		l.peers[nd].out.Enqueue(f)
	}
}

// awaitWindow blocks until every next-group member has acked step −
// ackWindow.
func (l *ringLink) awaitWindow(step int) {
	if !l.ackInit {
		// The first step this session runs (0, or cut+1 on a restart)
		// anchors the ack window: earlier steps were consumed before the
		// restart and will never be acked again.
		l.nextAcked = make([]int, len(l.next))
		for i := range l.nextAcked {
			l.nextAcked[i] = step - 1
		}
		l.ackInit = true
	}
	// The ack wait is backpressure, not transfer: it nests inside the
	// engine's send_output span so the report attributes it as wait time,
	// not communication.
	rg := l.trace.Begin(obs.CatWait, "peer_ack_wait")
	defer rg.End()
	target := step - ackWindow
	for i, nd := range l.next {
		for l.nextAcked[i] < target {
			f, err := l.peers[nd].in.next(wire.KindPeerAck)
			if err != nil {
				sessionFail("cluster: dev %d waiting for ack from device %d: %w", l.dev, nd, err)
			}
			acked := int(f.Step)
			f.Release()
			if acked != l.nextAcked[i]+1 {
				sessionFail("cluster: dev %d got ack for step %d from device %d, want %d", l.dev, acked, nd, l.nextAcked[i]+1)
			}
			l.nextAcked[i] = acked
		}
	}
}

// AllReduce replaces each gradient with the deterministic intra-group
// mean, computed by the group's own members. The gradients are flattened
// into one float32 vector split into k near-equal segments; each rank owns
// one segment.
//
// Reduce-scatter sends every rank's raw slice for segment s directly to
// its owner (rank s), which folds the k contributions in ascending rank
// order into a zeroed accumulator and scales by 1/k — the exact
// evaluation order of the in-process engine, which a conventional
// rotated-start reduce-scatter (fold in arrival order) would break. The
// byte volume is the same either way: each rank sends k-1 slices of ~G/k
// elements.
//
// All-gather then runs as a true ring: k-1 rounds, each rank forwarding
// the segment it just completed (or received) to its successor. With
// k == 2 the ring degenerates, so both members exchange their full
// vectors instead and fold them identically.
func (l *ringLink) AllReduce(step int, grads []*tensor.Tensor, scratch *tensor.Arena) {
	k := l.k
	if l.flat == nil {
		total := 0
		for _, g := range grads {
			total += g.Numel()
		}
		l.flat = make([]float32, total)
		l.segOff = make([]int, k+1)
		base, rem := total/k, total%k
		off := 0
		for i := 0; i < k; i++ {
			l.segOff[i] = off
			off += base
			if i < rem {
				off++
			}
		}
		l.segOff[k] = off
		maxSeg := base
		if rem > 0 {
			maxSeg++
		}
		l.acc = make([]float32, maxSeg)
		l.recv = make([]float32, total)
	}
	off := 0
	for _, g := range grads {
		copy(l.flat[off:], g.Data())
		off += g.Numel()
	}

	if k == 2 {
		l.allReducePair(step)
	} else {
		l.allReduceRing(step)
	}

	off = 0
	for _, g := range grads {
		copy(g.Data(), l.flat[off:off+g.Numel()])
		off += g.Numel()
	}
}

// allReducePair is the two-member fallback: exchange full vectors, fold
// rank 0 then rank 1 into a zeroed accumulator, scale by 1/2.
func (l *ringLink) allReducePair(step int) {
	rg := l.trace.Begin(obs.CatAllReduce, "pair_exchange")
	defer rg.End()
	other := l.group[1-l.rank]
	l.peers[other].out.Enqueue(wire.EncodeRingSegment(l.dev, int32(step), wire.RingFull, 0, l.flat))
	f := l.recvPeer(other, wire.KindRingSegment, step)
	phase, seg, data, err := wire.DecodeRingSegment(f, l.recv)
	f.Release()
	if err != nil {
		sessionFail("cluster: dev %d decoding ring frame of step %d: %w", l.dev, step, err)
	}
	if phase != wire.RingFull || seg != 0 || len(data) != len(l.flat) {
		sessionFail("cluster: dev %d got ring phase %d seg %d len %d, want full vector of %d",
			l.dev, phase, seg, len(data), len(l.flat))
	}
	r0, r1 := l.flat, data
	if l.rank == 1 {
		r0, r1 = data, l.flat
	}
	inv := 1 / float32(2)
	for i := range l.flat {
		// Zero-init + rank-ordered adds, matching the in-process AddInto
		// chain bit for bit (including the +0 result of 0 + -0).
		var s float32
		s += r0[i]
		s += r1[i]
		s *= inv
		l.flat[i] = s
	}
}

func (l *ringLink) allReduceRing(step int) {
	k, rank := l.k, l.rank
	rg := l.trace.Begin(obs.CatAllReduce, "reduce_scatter")
	// Reduce-scatter: raw slices go straight to each segment's owner.
	for s := 0; s < k; s++ {
		if s == rank {
			continue
		}
		l.peers[l.group[s]].out.Enqueue(wire.EncodeRingSegment(
			l.dev, int32(step), wire.RingContrib, s, l.flat[l.segOff[s]:l.segOff[s+1]]))
	}
	// Fold the owned segment in ascending rank order.
	segLen := l.segOff[rank+1] - l.segOff[rank]
	own := l.acc[:segLen]
	for i := range own {
		own[i] = 0
	}
	for r := 0; r < k; r++ {
		if r == rank {
			mine := l.flat[l.segOff[rank]:l.segOff[rank+1]]
			for i := range own {
				own[i] += mine[i]
			}
			continue
		}
		f := l.recvPeer(l.group[r], wire.KindRingSegment, step)
		phase, seg, data, err := wire.DecodeRingSegment(f, l.recv)
		f.Release()
		if err != nil {
			sessionFail("cluster: dev %d decoding contribution of step %d: %w", l.dev, step, err)
		}
		if phase != wire.RingContrib || seg != rank || len(data) != segLen {
			sessionFail("cluster: dev %d got ring phase %d seg %d len %d from rank %d, want contribution for seg %d len %d",
				l.dev, phase, seg, len(data), r, rank, segLen)
		}
		for i := range own {
			own[i] += data[i]
		}
	}
	inv := 1 / float32(k)
	for i := range own {
		own[i] *= inv
	}
	copy(l.flat[l.segOff[rank]:l.segOff[rank+1]], own)
	rg.End()
	rg = l.trace.Begin(obs.CatAllReduce, "all_gather")
	defer rg.End()

	// All-gather ring: k-1 rounds of forwarding completed segments.
	nextDev := l.group[(rank+1)%k]
	prevDev := l.group[(rank-1+k)%k]
	for t := 0; t < k-1; t++ {
		sendSeg := (rank - t + k) % k
		l.peers[nextDev].out.Enqueue(wire.EncodeRingSegment(
			l.dev, int32(step), wire.RingGather, sendSeg, l.flat[l.segOff[sendSeg]:l.segOff[sendSeg+1]]))
		recvSeg := (rank - 1 - t + k) % k
		f := l.recvPeer(prevDev, wire.KindRingSegment, step)
		phase, seg, data, err := wire.DecodeRingSegment(f, l.recv)
		f.Release()
		if err != nil {
			sessionFail("cluster: dev %d decoding gather of step %d: %w", l.dev, step, err)
		}
		if phase != wire.RingGather || seg != recvSeg || len(data) != l.segOff[recvSeg+1]-l.segOff[recvSeg] {
			sessionFail("cluster: dev %d got ring phase %d seg %d in gather round %d, want seg %d",
				l.dev, phase, seg, t, recvSeg)
		}
		copy(l.flat[l.segOff[recvSeg]:l.segOff[recvSeg+1]], data)
	}
}

var (
	_ engine.DeviceLink   = (*ringLink)(nil)
	_ engine.StepFinisher = (*ringLink)(nil)
)
