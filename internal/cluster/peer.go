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
// worker-to-worker data plane of ring-topology sessions.
//
// Every session has a control link to the coordinator; in hub topology
// every activation and gradient crosses it. In ring topology the
// coordinator only distributes a placement directory (Assign.Peers: device
// rank -> worker address) and the workers dial each other directly: one
// link per device pair that communicates — every pair within a split group
// (reduce-scatter contributions plus the all-gather ring) and every
// (member, member) pair across adjacent groups (activation forwarding).
// The higher-ranked device's session dials the lower device's worker;
// device pairs hosted on the same worker (or even the same session) still
// dial through the network, so every pair is wired identically. A pair
// the Assign lists as degraded is not dialed: its endpoints send through
// the control link in KindRelay envelopes, and nothing above the endpoint
// can tell.
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
	// the slowest downstream consumer's acks.
	ackWindow = 2
)

// pairKey identifies a directed endpoint: the local device's view of its
// link to the remote device.
type pairKey struct{ local, remote int }

// mesh is one session's set of links: its control endpoint and, under the
// ring, its peer endpoints. The worker's accept path hands incoming peer
// hellos to accept (on the listener's handler goroutine); the session's
// establish phase dials the outbound half and blocks in waitAccepted until
// every expected endpoint exists.
type mesh struct {
	linkPolicy
	dir     []string  // peers directory: device rank -> worker address
	control *endpoint // the session's link to the coordinator

	mu      sync.Mutex
	cond    *sync.Cond
	eps     map[pairKey]*endpoint
	pending map[pairKey]bool // endpoints accept must still deliver
	closed  bool
	readers sync.WaitGroup
}

func newMesh(links linkPolicy, dir []string, control *endpoint) *mesh {
	m := &mesh{linkPolicy: links, dir: dir, control: control,
		eps: make(map[pairKey]*endpoint), pending: make(map[pairKey]bool)}
	m.cond = sync.NewCond(&m.mu)
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
	ep.in = newInbox()
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

// relay installs the (local, remote) endpoint of a degraded edge: no
// connection of its own, an outbox that wraps each frame for the
// coordinator to forward, and an inbox the session's router fills.
func (m *mesh) relay(local, remote int) {
	control := m.control.out
	m.eps[pairKey{local, remote}] = &endpoint{in: newInbox(),
		out: newOutbox(func(f *wire.Frame) error {
			control.Enqueue(wire.EncodeRelay(int32(remote), f))
			return nil
		})}
}

// unwrap delivers a relayed peer frame off the control link into the
// inbox of the degraded edge it crossed; a frame naming any other pair is
// a protocol error.
func (m *mesh) unwrap(f *wire.Frame) error {
	inner, err := wire.DecodeRelay(f)
	if err != nil {
		return err
	}
	m.mu.Lock()
	ep := m.eps[pairKey{int(f.Dev), int(inner.Dev)}]
	m.mu.Unlock()
	if ep == nil || ep.conn != nil {
		return fmt.Errorf("cluster: relayed %v from device %d to device %d crosses no degraded edge of this session",
			inner.Kind, inner.Dev, f.Dev)
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
// deadline — the remote session may not have received its Assign yet.
func (m *mesh) dialPeer(local, remote int, deadline time.Time) error {
	addr := m.dir[remote]
	for {
		conn, _, err := m.open(addr, wire.PeerHello{Epoch: m.epoch, From: local, To: remote}, deadline)
		if err == nil {
			m.mu.Lock()
			defer m.mu.Unlock()
			if m.closed {
				conn.Close()
				return fmt.Errorf("cluster: mesh closed")
			}
			m.install(conn, local, remote, addr)
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: peer link %d->%d to %s not established before deadline (last error: %v)",
				local, remote, addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitAccepted blocks until every expected inbound endpoint was delivered
// by the worker's accept path, or the deadline passes.
func (m *mesh) waitAccepted(deadline time.Time) error {
	timer := time.AfterFunc(time.Until(deadline), func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer timer.Stop()
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.pending) > 0 && !m.closed && time.Now().Before(deadline) {
		m.cond.Wait()
	}
	if len(m.pending) > 0 {
		missing := make([]pairKey, 0, len(m.pending))
		for k := range m.pending {
			missing = append(missing, k)
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

// fail wakes every peer endpoint's waiters: a dead session or device must
// not leave a sibling device blocked on a peer frame that will never
// arrive.
func (m *mesh) fail(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
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
// with under ring topology: every other member of its own (split) group,
// every member of the previous group, and every member of the next group.
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

// ringLink implements engine.DeviceLink for ring topology: stage-to-stage
// activations and the intra-group all-reduce travel over peer endpoints,
// while the control plane — loss reports, the global step barrier, and
// recovery snapshots — and the first group's local batch schedule stay on
// the embedded coordinator link.
type ringLink struct {
	*clusterLink
	rank  int
	k     int
	group []int // own group's device ranks in rank order
	prev  []int // previous group's device ranks (nil for group 0)
	next  []int // next group's device ranks (nil for the last group)
	// peers holds the endpoint to each remote device; whether an edge is
	// direct or relayed through the coordinator is not visible from here.
	peers map[int]*endpoint

	// Activation-forward flow control: a sender may run at most ackWindow
	// steps ahead of the slowest downstream consumer's acks.
	nextAcked []int // per next-group member: highest acked step
	ackInit   bool

	// Reusable all-reduce buffers.
	flat   []float32
	acc    []float32
	segOff []int
}

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

// RecvInput assembles the step's full-batch input from the previous
// group's members (each sends its boundary-activation shard directly),
// in ascending previous-rank order — byte-identical to the hub's
// assembly — and acks each upstream endpoint. Group 0 has no upstream and
// reads its local schedule like a hub device.
func (l *ringLink) RecvInput(step int) *tensor.Tensor {
	if l.firstGroup {
		return l.clusterLink.RecvInput(step)
	}
	parts := make([]*tensor.Tensor, len(l.prev))
	for i, pd := range l.prev {
		f := l.recvPeer(pd, wire.KindPeerInput, step)
		t, err := wire.DecodeTensor(f)
		if err != nil {
			sessionFail("cluster: dev %d decoding peer input of step %d from device %d: %w", l.dev, step, pd, err)
		}
		parts[i] = t
	}
	full, err := assembleShards(parts)
	if err != nil {
		sessionFail("cluster: dev %d step %d upstream: %w", l.dev, step, err)
	}
	for _, pd := range l.prev {
		l.peers[pd].out.Enqueue(wire.Control(wire.KindPeerAck, l.dev, int32(step)))
	}
	return full
}

// SendOutput forwards the member's boundary activation (its shard when
// the group is split) to every member of the next group, after waiting
// for acks that keep the sender within the pipeline window.
func (l *ringLink) SendOutput(step int, out *tensor.Tensor) {
	if l.lastGroup {
		return
	}
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
	target := step - ackWindow
	for i, nd := range l.next {
		for l.nextAcked[i] < target {
			f, err := l.peers[nd].in.next(wire.KindPeerAck)
			if err != nil {
				sessionFail("cluster: dev %d waiting for ack from device %d: %w", l.dev, nd, err)
			}
			if int(f.Step) != l.nextAcked[i]+1 {
				sessionFail("cluster: dev %d got ack for step %d from device %d, want %d", l.dev, f.Step, nd, l.nextAcked[i]+1)
			}
			l.nextAcked[i] = int(f.Step)
		}
	}
	rg.End()
	f := wire.EncodeTensor(wire.KindPeerInput, l.dev, int32(step), out)
	for _, nd := range l.next {
		l.peers[nd].out.Enqueue(f)
	}
}

// AllReduce replaces each gradient with the deterministic intra-group
// mean without touching the coordinator. The gradients are flattened into
// one float32 vector split into k near-equal segments; each rank owns one
// segment.
//
// Reduce-scatter sends every rank's raw slice for segment s directly to
// its owner (rank s), which folds the k contributions in ascending rank
// order into a zeroed accumulator and scales by 1/k — the exact
// evaluation order of the hub and the in-process engine, which a
// conventional rotated-start reduce-scatter (fold in arrival order)
// would break. The byte volume is the same either way: each rank sends
// k-1 slices of ~G/k elements.
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
	phase, seg, data, err := wire.DecodeRingSegment(f)
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
		// Zero-init + rank-ordered adds, matching the hub's AddInto chain
		// bit for bit (including the +0 result of 0 + -0).
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
		phase, seg, data, err := wire.DecodeRingSegment(f)
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
		phase, seg, data, err := wire.DecodeRingSegment(f)
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
