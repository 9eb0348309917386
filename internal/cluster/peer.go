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
	"pipebd/internal/sim"
	"pipebd/internal/tensor"
)

// Peer mesh: the worker-to-worker data plane of ring-topology sessions.
//
// In hub topology every activation and gradient crosses the coordinator.
// In ring topology the coordinator only distributes a placement directory
// (Assign.Peers: device rank -> worker address) and the workers dial each
// other directly: one connection per device pair that communicates —
// every pair within a split group (reduce-scatter contributions plus the
// all-gather ring) and every (member, member) pair across adjacent groups
// (activation forwarding). The higher-ranked device's session dials the
// lower device's worker; device pairs hosted on the same worker (or even
// the same session) still dial through the network, so every pair is
// wired identically.
//
// Handshake: dialer connects, consumes the worker's Hello, sends a
// PeerHello{Epoch, From, To}; the accepting worker routes the connection
// to the session hosting device To (registered under the run epoch, so a
// stale connection from a previous attempt can never wire into a new
// mesh), which echoes the PeerHello back. Only then does the dialer treat
// the link as established.

const (
	// peerAcceptTimeout bounds how long an accepted peer connection waits
	// for the session hosting its target device to register.
	peerAcceptTimeout = 5 * time.Second
	// meshTimeout bounds a session's whole mesh-establishment phase.
	meshTimeout = 10 * time.Second
	// ackWindow is how many steps an activation sender may run ahead of
	// the slowest downstream consumer's acks.
	ackWindow = 2
)

// peerEndpoint is one device's end of a worker-to-worker connection.
type peerEndpoint struct {
	local  int // local device rank
	remote int // remote device rank
	conn   transport.Conn
	res    *transport.Resumable // == conn when the session's retry policy is on; nil otherwise
	out    *outbox
	in     *inbox
}

// startReader demuxes the endpoint's inbound frames into its inbox until
// the connection dies. Under a resumable link "dies" means terminally —
// transient breaks are absorbed inside Recv — and a budget-exhausted
// link is reported to the mesh's link-down hook before the inbox fails,
// so the coordinator can classify the failure as degradable.
func (ep *peerEndpoint) startReader(m *mesh) {
	m.readers.Add(1)
	go func() {
		defer m.readers.Done()
		for {
			f, err := ep.conn.Recv()
			if err != nil {
				if errors.Is(err, transport.ErrLinkDown) && m.linkDown != nil {
					m.linkDown(ep.local, ep.remote)
				}
				ep.in.fail(fmt.Errorf("cluster: peer link %d<->%d lost: %w", ep.local, ep.remote, err))
				return
			}
			ep.in.put(f)
		}
	}()
}

// pairKey identifies a directed endpoint: the local device's view of its
// link to the remote device.
type pairKey struct{ local, remote int }

// mesh is one session's set of peer endpoints. The worker's accept path
// hands incoming peer connections to acceptPeer (on the listener's
// handler goroutine); the session's establish phase dials the outbound
// half and blocks in wait until every expected endpoint exists.
type mesh struct {
	epoch int64
	dir   []string // peers directory: device rank -> worker address

	// Transient-fault absorption wiring (zero/nil when Run.Retry is off):
	// retry is the session's policy, net redials broken dialer-side links,
	// linkDown reports a budget-exhausted link's device edge, onAbsorb and
	// logf observe successful reconnects.
	retry    wire.RetrySpec
	net      transport.Network
	linkDown func(local, remote int)
	onAbsorb func(replayed int)
	logf     func(format string, args ...any)

	mu      sync.Mutex
	cond    *sync.Cond
	eps     map[pairKey]*peerEndpoint
	pending map[pairKey]bool // endpoints acceptPeer must still deliver
	closed  bool
	readers sync.WaitGroup
}

func newMesh(epoch int64, dir []string) *mesh {
	m := &mesh{epoch: epoch, dir: dir,
		eps: make(map[pairKey]*peerEndpoint), pending: make(map[pairKey]bool)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// retryPolicy converts a wire-level retry spec into the transport policy
// of one link.
func retryPolicy(r wire.RetrySpec) transport.RetryPolicy {
	return transport.RetryPolicy{
		Backoff:  time.Duration(r.BackoffMillis) * time.Millisecond,
		Budget:   time.Duration(r.BudgetMillis) * time.Millisecond,
		AckEvery: r.AckEvery,
	}
}

func (m *mesh) retryPolicy() transport.RetryPolicy { return retryPolicy(m.retry) }

// resume wraps an established peer connection in its resumable layer;
// redial is nil on the accepting side.
func (m *mesh) resume(conn transport.Conn, local, remote int, redial transport.RedialFunc) *transport.Resumable {
	return transport.NewResumable(conn, m.retryPolicy(), transport.ResumableOptions{
		Redial:   redial,
		Name:     fmt.Sprintf("peer link %d<->%d", local, remote),
		Logf:     m.logf,
		OnAbsorb: m.onAbsorb,
	})
}

// expectAccept marks a (local, remote) endpoint as one the worker's
// accept path will deliver; called before any peer dials out.
func (m *mesh) expectAccept(local, remote int) {
	m.mu.Lock()
	m.pending[pairKey{local, remote}] = true
	m.mu.Unlock()
}

// acceptPeer installs an accepted peer connection and echoes the
// handshake, signalling the dialer that the hosting session picked the
// link up. Runs on the worker's connection-handler goroutine; on error
// the caller closes the connection.
func (m *mesh) acceptPeer(h wire.PeerHello, conn transport.Conn) error {
	key := pairKey{local: h.To, remote: h.From}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("cluster: mesh closed")
	}
	if !m.pending[key] {
		return fmt.Errorf("cluster: unexpected peer link %d->%d", h.From, h.To)
	}
	echo := wire.EncodePeerHello(wire.PeerHello{Epoch: m.epoch, From: h.To, To: h.From})
	link := transport.Conn(conn)
	var res *transport.Resumable
	if m.retry.Enabled() {
		// The echo must travel on the raw connection before the resumable
		// wrapper installs: both sides start counting application frames
		// right after the handshake, so the echo must stay outside the
		// counted stream.
		if err := conn.Send(echo); err != nil {
			return fmt.Errorf("cluster: peer echo %d->%d: %w", h.To, h.From, err)
		}
		res = m.resume(conn, h.To, h.From, nil)
		link = res
	}
	delete(m.pending, key)
	ep := &peerEndpoint{local: h.To, remote: h.From, conn: link, res: res,
		out: newOutbox(link), in: newInbox()}
	if res == nil {
		// The echo goes through the endpoint's own outbox — the only writer
		// this connection will ever have on this side.
		ep.out.Enqueue(echo)
	}
	ep.startReader(m)
	m.eps[key] = ep
	m.cond.Broadcast()
	return nil
}

// adoptPeer re-attaches a redialed peer connection (a resume PeerHello)
// to its existing endpoint: the resumable layer echoes the handshake
// with our receive count and replays the unacked tail.
func (m *mesh) adoptPeer(h wire.PeerHello, conn transport.Conn) error {
	m.mu.Lock()
	ep := m.eps[pairKey{local: h.To, remote: h.From}]
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return fmt.Errorf("cluster: mesh closed")
	}
	if ep == nil || ep.res == nil {
		return fmt.Errorf("cluster: resume for unknown peer link %d->%d", h.From, h.To)
	}
	return ep.res.Adopt(conn, h.Recvd, func(recvd int64) *wire.Frame {
		return wire.EncodePeerHello(wire.PeerHello{
			Epoch: m.epoch, From: h.To, To: h.From, Resume: true, Recvd: recvd})
	})
}

// dialPeer establishes the outbound half of one pair: dial the remote
// device's worker, consume its Hello, send our PeerHello, and wait for
// the echo proving the hosting session accepted the link. Retries until
// the deadline — the remote session may not have received its Assign yet.
func (m *mesh) dialPeer(net transport.Network, local, remote int, deadline time.Time) (*peerEndpoint, error) {
	addr := m.dir[remote]
	var lastErr error
	for {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster: peer link %d->%d to %s not established before deadline (last error: %v)",
				local, remote, addr, lastErr)
		}
		conn, err := dialHello(net, addr, deadline)
		if err != nil {
			lastErr = err
			time.Sleep(10 * time.Millisecond)
			continue
		}
		ep, err := m.handshakePeer(conn, local, remote, deadline)
		if err != nil {
			conn.Close()
			lastErr = err
			time.Sleep(10 * time.Millisecond)
			continue
		}
		return ep, nil
	}
}

func (m *mesh) handshakePeer(conn transport.Conn, local, remote int, deadline time.Time) (*peerEndpoint, error) {
	if err := conn.Send(wire.EncodePeerHello(wire.PeerHello{Epoch: m.epoch, From: local, To: remote})); err != nil {
		return nil, err
	}
	echo, err := recvDeadline(conn, deadline)
	if err != nil {
		return nil, err
	}
	h, err := wire.DecodePeerHello(echo)
	if err != nil {
		return nil, err
	}
	if h.Epoch != m.epoch || h.From != remote || h.To != local {
		return nil, fmt.Errorf("peer echo names epoch %d link %d->%d, want epoch %d link %d->%d",
			h.Epoch, h.From, h.To, m.epoch, remote, local)
	}
	link := transport.Conn(conn)
	var res *transport.Resumable
	if m.retry.Enabled() {
		addr := m.dir[remote]
		res = m.resume(conn, local, remote, func(recvd int64) (transport.Conn, int64, error) {
			return m.redialPeer(addr, local, remote, recvd)
		})
		link = res
	}
	ep := &peerEndpoint{local: local, remote: remote, conn: link, res: res,
		out: newOutbox(link), in: newInbox()}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		if res != nil {
			res.Close()
		}
		return nil, fmt.Errorf("mesh closed")
	}
	ep.startReader(m)
	m.eps[pairKey{local, remote}] = ep
	m.mu.Unlock()
	return ep, nil
}

// redialPeer re-establishes a broken dialer-side peer link: fresh dial,
// the worker's Hello, then a resume PeerHello carrying our count of
// received application frames; the echo carries the remote's count,
// which bounds the replay to exactly the frames the break swallowed.
func (m *mesh) redialPeer(addr string, local, remote int, recvd int64) (transport.Conn, int64, error) {
	deadline := time.Now().Add(m.retryPolicy().Budget)
	conn, err := dialHello(m.net, addr, deadline)
	if err != nil {
		return nil, 0, err
	}
	err = conn.Send(wire.EncodePeerHello(wire.PeerHello{
		Epoch: m.epoch, From: local, To: remote, Resume: true, Recvd: recvd}))
	var h wire.PeerHello
	if err == nil {
		var echo *wire.Frame
		if echo, err = recvDeadline(conn, deadline); err == nil {
			h, err = wire.DecodePeerHello(echo)
		}
	}
	if err == nil && (h.Epoch != m.epoch || h.From != remote || h.To != local || !h.Resume) {
		err = fmt.Errorf("resume echo names epoch %d link %d->%d, want epoch %d link %d->%d",
			h.Epoch, h.From, h.To, m.epoch, remote, local)
	}
	if err != nil {
		conn.Close()
		return nil, 0, err
	}
	return conn, h.Recvd, nil
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

// endpoint returns the established endpoint for a (local, remote) pair.
func (m *mesh) endpoint(local, remote int) *peerEndpoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.eps[pairKey{local, remote}]
}

// fail wakes every endpoint's waiters: a dead session or device must not
// leave a sibling device blocked on a peer frame that will never arrive.
func (m *mesh) fail(err error) {
	m.mu.Lock()
	eps := make([]*peerEndpoint, 0, len(m.eps))
	for _, ep := range m.eps {
		eps = append(eps, ep)
	}
	m.mu.Unlock()
	for _, ep := range eps {
		ep.in.fail(err)
	}
}

// close tears the mesh down. Graceful close flushes each outbox before
// closing the connection (in-flight frames were already consumed by the
// time the coordinator drains the session); on the failure path the
// connections close first so a writer stuck mid-Send is unblocked.
func (m *mesh) close(graceful bool) {
	m.mu.Lock()
	m.closed = true
	eps := make([]*peerEndpoint, 0, len(m.eps))
	for _, ep := range m.eps {
		eps = append(eps, ep)
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	for _, ep := range eps {
		// Retiring first makes the teardown's own connection breaks
		// terminal instead of triggering a futile reconnect dance.
		if ep.res != nil {
			ep.res.Retire()
		}
		if graceful {
			ep.out.Close()
			ep.conn.Close()
		} else {
			ep.conn.Close()
			ep.out.Kill()
			ep.out.Close()
		}
	}
	m.readers.Wait()
}

// peerSets enumerates the remote devices one local device communicates
// with under ring topology: every other member of its own (split) group,
// every member of the previous group, and every member of the next group.
func peerSets(plan []groupInfo, dev int) (group, prev, next []int) {
	for gi, g := range plan {
		for _, d := range g.devices {
			if d != dev {
				continue
			}
			group = g.devices
			if gi > 0 {
				prev = plan[gi-1].devices
			}
			if gi < len(plan)-1 {
				next = plan[gi+1].devices
			}
			return group, prev, next
		}
	}
	return nil, nil, nil
}

// groupInfo is the slice of plan structure the mesh needs.
type groupInfo struct{ devices []int }

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
	peers map[int]*peerEndpoint

	// Degraded-edge routing (tier 2 of fault absorption): remotes whose
	// direct link is persistently down exchange activations and acks via
	// the coordinator hub relay instead; groupHub is set when any
	// intra-group edge is degraded, falling the whole group's all-reduce
	// back to the coordinator's fold — bit-identical by construction.
	degraded  map[int]bool
	groupHub  bool
	relayIn   map[int][]*wire.Frame // stashed KindRelay frames by sender
	relayAcks map[int][]*wire.Frame // stashed KindRelayAck frames by receiver

	// Activation-forward flow control: a sender may run at most ackWindow
	// steps ahead of the slowest downstream consumer's acks.
	nextAcked []int // per next-group member: highest acked step
	ackInit   bool

	// Reusable all-reduce buffers.
	flat   []float32
	acc    []float32
	segOff []int
}

// nextRelay returns the step's hub-relayed activation from the given
// degraded sender, stashing relay frames that belong to other senders.
// Frames from one sender arrive in order (the hub preserves per-link
// ordering), so a strict step check suffices.
func (l *ringLink) nextRelay(sender, step int) *tensor.Tensor {
	for {
		if q := l.relayIn[sender]; len(q) > 0 {
			f := q[0]
			l.relayIn[sender] = q[1:]
			if int(f.Step) != step {
				sessionFail("cluster: dev %d got relayed input for step %d from device %d, want %d", l.dev, f.Step, sender, step)
			}
			_, t, err := wire.DecodeRelay(f)
			if err != nil {
				sessionFail("cluster: dev %d decoding relayed input of step %d from device %d: %w", l.dev, step, sender, err)
			}
			return t
		}
		f, err := l.in.next(wire.KindRelay)
		if err != nil {
			sessionFail("cluster: dev %d waiting for relayed input from device %d (step %d): %w", l.dev, sender, step, err)
		}
		s, err := wire.RelaySender(f)
		if err != nil {
			sessionFail("cluster: dev %d reading relay sender: %w", l.dev, err)
		}
		if l.relayIn == nil {
			l.relayIn = make(map[int][]*wire.Frame)
		}
		l.relayIn[s] = append(l.relayIn[s], f)
	}
}

// nextRelayAck returns the next hub-relayed activation ack from the given
// degraded receiver, stashing acks that belong to other receivers.
func (l *ringLink) nextRelayAck(receiver int) *wire.Frame {
	for {
		if q := l.relayAcks[receiver]; len(q) > 0 {
			f := q[0]
			l.relayAcks[receiver] = q[1:]
			return f
		}
		f, err := l.in.next(wire.KindRelayAck)
		if err != nil {
			sessionFail("cluster: dev %d waiting for relayed ack from device %d: %w", l.dev, receiver, err)
		}
		rcv, err := wire.DecodeRelayAck(f)
		if err != nil {
			sessionFail("cluster: dev %d decoding relayed ack: %w", l.dev, err)
		}
		if l.relayAcks == nil {
			l.relayAcks = make(map[int][]*wire.Frame)
		}
		l.relayAcks[rcv] = append(l.relayAcks[rcv], f)
	}
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
		if l.degraded[pd] {
			parts[i] = l.nextRelay(pd, step)
			continue
		}
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
		if l.degraded[pd] {
			l.out.Enqueue(wire.EncodeRelayAck(int32(pd), int32(l.dev), int32(step)))
			continue
		}
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
			var f *wire.Frame
			if l.degraded[nd] {
				f = l.nextRelayAck(nd)
			} else {
				var err error
				f, err = l.peers[nd].in.next(wire.KindPeerAck)
				if err != nil {
					sessionFail("cluster: dev %d waiting for ack from device %d: %w", l.dev, nd, err)
				}
			}
			if int(f.Step) != l.nextAcked[i]+1 {
				sessionFail("cluster: dev %d got ack for step %d from device %d, want %d", l.dev, f.Step, nd, l.nextAcked[i]+1)
			}
			l.nextAcked[i] = int(f.Step)
		}
	}
	rg.End()
	var f *wire.Frame
	for _, nd := range l.next {
		if l.degraded[nd] {
			l.out.Enqueue(wire.EncodeRelay(int32(l.dev), int32(nd), int32(step), out))
			continue
		}
		if f == nil {
			f = wire.EncodeTensor(wire.KindPeerInput, l.dev, int32(step), out)
		}
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
	if l.groupHub {
		// A degraded intra-group edge: the whole group falls back to the
		// coordinator's hub fold, which evaluates in the same rank order
		// and is therefore bit-identical to the peer ring.
		l.clusterLink.AllReduce(step, grads, scratch)
		return
	}
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
	rg := l.trace.Begin(sim.CatAllReduce, "pair_exchange")
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
	rg := l.trace.Begin(sim.CatAllReduce, "reduce_scatter")
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
	rg = l.trace.Begin(sim.CatAllReduce, "all_gather")
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
