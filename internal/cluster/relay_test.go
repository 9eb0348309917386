package cluster

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/engine"
	"pipebd/internal/tensor"
)

// tap wraps a Network so a test sees, in order, every frame crossing a
// connection it dialed, sent or received by the dialing side. Wrapping
// the workers' dial network shows the direct peer links; wrapping the
// coordinator's shows the control links, each relayed peer frame twice —
// received from its source's session, sent to its destination's.
type tap struct {
	transport.Network
	mu     sync.Mutex
	frames []tapped
}

type tapped struct {
	recv bool // received by the dialing side, else sent by it
	*wire.Frame
}

// peerFrame is one peer frame the tap saw: a direct link's, or the one a
// relay envelope carries to the envelope's device (to; -1 when direct).
type peerFrame struct {
	recv           bool
	kind           wire.Kind
	from, to, step int
}

func (n *tap) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tap: n}, nil
}

// note records a copy of f: the frame itself is its holder's, released
// (and, pooled, recycled) once sent or consumed.
func (n *tap) note(recv bool, f *wire.Frame) {
	cp := &wire.Frame{Kind: f.Kind, Dev: f.Dev, Step: f.Step, Payload: append([]byte(nil), f.Payload...)}
	n.mu.Lock()
	n.frames = append(n.frames, tapped{recv, cp})
	n.mu.Unlock()
}

// sent lists the frames of kind the dialing side sent.
func (n *tap) sent(kind wire.Kind) []*wire.Frame {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []*wire.Frame
	for _, f := range n.frames {
		if !f.recv && f.Kind == kind {
			out = append(out, f.Frame)
		}
	}
	return out
}

// peer lists the peer frames the tap saw, in order.
func (n *tap) peer() []peerFrame {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []peerFrame
	for _, f := range n.frames {
		pf := peerFrame{recv: f.recv, kind: f.Kind, from: int(f.Dev), to: -1, step: int(f.Step)}
		switch f.Kind {
		case wire.KindRelay:
			inner, err := wire.DecodeRelay(f.Frame)
			if err != nil {
				continue
			}
			pf.kind, pf.from, pf.to = inner.Kind, int(inner.Dev), int(f.Dev)
		case wire.KindOutput, wire.KindPeerAck, wire.KindRingSegment:
		default:
			continue
		}
		out = append(out, pf)
	}
	return out
}

type tapConn struct {
	transport.Conn
	tap *tap
}

func (c *tapConn) Send(f *wire.Frame) error {
	c.tap.note(false, f)
	return c.Conn.Send(f)
}

func (c *tapConn) Recv() (*wire.Frame, error) {
	f, err := c.Conn.Recv()
	if err == nil {
		c.tap.note(true, f)
	}
	return f, err
}

// TestPeerAcksOnlyUnderDPU pins the ack rule under both topologies:
// without DPU the step barrier bounds every sender, so no KindPeerAck
// frame crosses any connection; under DPU the consumers ack every input.
// The hub rows count the acks the coordinator relays, the ring rows the
// ones on the direct links.
func TestPeerAcksOnlyUnderDPU(t *testing.T) {
	leakCheck(t)
	for _, topology := range []string{"hub", "ring"} {
		for _, dpu := range []bool{false, true} {
			s := runSpec{plan: hybridPlan(), dpu: dpu, steps: 5, batch: 6}
			inner := transport.NewLoopback()
			tap := &tap{Network: inner}
			coordNet, dial := transport.Network(inner), transport.Network(tap)
			if topology == "hub" {
				coordNet, dial = tap, inner
			}
			addrs := startWorkers(t, inner, 3, WorkerConfig{Sessions: 1, Dial: dial})
			cfg := s.config()
			cfg.Topology = topology
			res, w, err := s.run(coordNet, addrs, cfg)
			if err != nil {
				t.Fatalf("%s dpu=%v: %v", topology, dpu, err)
			}
			s.check(t, res, w)
			count := map[wire.Kind]int{}
			for _, f := range tap.peer() {
				count[f.kind]++
			}
			if count[wire.KindOutput] == 0 {
				t.Fatalf("%s dpu=%v: the tap saw no activation, so it counts nothing", topology, dpu)
			}
			acks := count[wire.KindPeerAck]
			if !dpu && acks != 0 {
				t.Fatalf("%s run without DPU sent %d peer acks, want none", topology, acks)
			}
			if dpu && acks == 0 {
				t.Fatalf("%s run with DPU sent no peer acks", topology)
			}
		}
	}
}

// TestHubRelayedAcksBoundTheWindow: under DPU a hub run's acks still hold
// each activation sender within ackWindow steps of its consumer. The
// consumer's worker is throttled, so an unbounded sender would run ahead;
// the coordinator relays everything, so it must receive the consumer's
// ack of step s-ackWindow before the sender's activation of step s. The
// sender must also reach the window once — an activation relayed with
// only step s-ackWindow acked — or the throttle slowed nothing and the
// bound went untested.
func TestHubRelayedAcksBoundTheWindow(t *testing.T) {
	leakCheck(t)
	const steps = 8
	s := runSpec{plan: trPlan(), dpu: true, steps: steps, batch: 6}
	inner := transport.NewLoopback()
	addrs := startWorkersMixed(t, inner, []WorkerConfig{{Sessions: 1},
		{Sessions: 1, Backend: tensor.NewThrottled(tensor.Default(), 32)}})
	tap := &tap{Network: inner}
	cfg := s.config()
	cfg.Topology = "hub"
	res, w, err := s.run(tap, addrs, cfg)
	if err != nil {
		t.Fatalf("hub run with a slow consumer: %v", err)
	}
	s.check(t, res, w)

	acked := -1
	outputs, lead := 0, 0
	for _, f := range tap.peer() {
		if !f.recv {
			continue
		}
		switch f.kind {
		case wire.KindPeerAck:
			acked = f.step
		case wire.KindOutput:
			outputs++
			if f.step-ackWindow > acked {
				t.Fatalf("device %d sent the activation of step %d with only step %d acked (window %d)",
					f.from, f.step, acked, ackWindow)
			}
			lead = max(lead, f.step-acked)
		}
	}
	if outputs != steps {
		t.Fatalf("coordinator received %d relayed activations, want %d", outputs, steps)
	}
	if lead != ackWindow {
		t.Fatalf("the sender ran at most %d step(s) ahead of the consumer's acks, never the window of %d", lead, ackWindow)
	}
}

// forgeNet wraps the coordinator's network so the first inbound frame
// forge rewrites is replaced by what forge returns: a worker session
// misbehaving on its control link.
type forgeNet struct {
	transport.Network
	forge func(f *wire.Frame) []*wire.Frame // nil: leave f alone
	fired atomic.Bool
}

func (n *forgeNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &forgeConn{Conn: c, net: n}, nil
}

type forgeConn struct {
	transport.Conn
	net     *forgeNet
	pending []*wire.Frame
}

func (c *forgeConn) Recv() (*wire.Frame, error) {
	if len(c.pending) == 0 {
		f, err := c.Conn.Recv()
		if err != nil {
			return nil, err
		}
		c.pending = []*wire.Frame{f}
		if forged := c.net.forge(f); forged != nil && c.net.fired.CompareAndSwap(false, true) {
			c.pending = forged
		}
	}
	f := c.pending[0]
	c.pending = c.pending[1:]
	return f, nil
}

// TestRelayRefusesForgedEdges: the coordinator forwards a relay envelope
// only when its inner source is a device the sending session hosts and
// the (source, destination) pair is an edge the attempt relays. A session
// claiming a sibling's device as the source of a hub activation, or
// injecting an envelope onto a ring's direct edge, fails the attempt with
// a protocol error naming the edge.
func TestRelayRefusesForgedEdges(t *testing.T) {
	leakCheck(t)
	s := runSpec{plan: hybridPlan(), dpu: true, steps: 4, batch: 6}
	cases := []struct {
		name, topology string
		forge          func(f *wire.Frame) []*wire.Frame
	}{
		// Device 0's session relays its activation as if device 1 — hosted
		// by another worker — had sent it; 1->2 is a relayed edge.
		{"hub-spoofed-source", "hub", func(f *wire.Frame) []*wire.Frame {
			if f.Kind != wire.KindRelay {
				return nil
			}
			inner, err := wire.DecodeRelay(f)
			if err != nil || inner.Kind != wire.KindOutput || inner.Dev != 0 {
				return nil
			}
			inner.Dev = 1
			return []*wire.Frame{wire.EncodeRelay(f.Dev, inner)}
		}},
		// Device 0's session pushes an activation onto its direct ring
		// edge to device 2 through the coordinator.
		{"ring-direct-edge", "ring", func(f *wire.Frame) []*wire.Frame {
			if f.Kind != wire.KindLosses || f.Dev != 0 {
				return nil
			}
			out := wire.EncodeTensor(wire.KindOutput, 0, f.Step, tensor.New(3, 3, 8, 8))
			return []*wire.Frame{wire.EncodeRelay(2, out), f}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inner := transport.NewLoopback()
			addrs := startWorkers(t, inner, 3, WorkerConfig{Sessions: 1, Rejoin: true, Dial: inner})
			net := &forgeNet{Network: inner, forge: tc.forge}
			cfg := s.config()
			cfg.Topology, cfg.MaxRestarts, cfg.JoinTimeout = tc.topology, 2, 5*time.Second
			_, _, err := s.run(net, addrs, cfg)
			if !net.fired.Load() {
				t.Fatal("the forged envelope was never sent")
			}
			if err == nil || !strings.Contains(err.Error(), "not a relayed edge") {
				t.Fatalf("forged relay: got %v, want the coordinator's relayed-edge refusal", err)
			}
		})
	}
}

// TestLateFrameDoesNotCancelTheFlush: a graceful close sends everything
// queued before it, even when a frame arrives after the close began — a
// relay envelope a reader forwards while the attempt tears down, such as
// the last step's peer ack landing after every device reported Done. The
// late frame is dropped; before, it poisoned the outbox and the flush
// dropped the session's Drain, so the worker counted a completed run as
// a failed session.
func TestLateFrameDoesNotCancelTheFlush(t *testing.T) {
	release := make(chan struct{})
	var sent []wire.Kind
	o := newOutbox(func(f *wire.Frame) error {
		if f.Kind == wire.KindStepGo {
			<-release // hold the writer on the first frame
		}
		sent = append(sent, f.Kind)
		return nil
	})
	o.Enqueue(wire.Control(wire.KindStepGo, 0, 0))
	o.Enqueue(wire.Control(wire.KindDrain, wire.NoDev, wire.NoStep))
	o.q.Close() // the first half of Close: no frame is queued after this
	o.Enqueue(wire.Control(wire.KindRelay, 0, 0))
	close(release)
	o.Close()
	if len(sent) != 2 || sent[1] != wire.KindDrain || o.Err() != nil {
		t.Fatalf("flush sent %v (outbox error %v), want the step release and the drain", sent, o.Err())
	}
}

// TestDoneFollowsRelayedFrames: a device's Done reaches the control link
// after every frame its relayed edges still hold. The coordinator takes a
// session whose devices are all done as safe to lose, so a relayed frame
// queued behind the Done would be lost with it. The relayed edge's writer
// is held until the control link carries a Done or 10 ms pass.
func TestDoneFollowsRelayedFrames(t *testing.T) {
	var sent []wire.Kind
	done := make(chan struct{})
	control := newOutbox(func(f *wire.Frame) error {
		sent = append(sent, f.Kind)
		if f.Kind == wire.KindDone {
			close(done)
		}
		return nil
	})
	hold := time.NewTimer(10 * time.Millisecond)
	defer hold.Stop()
	edge := &endpoint{in: newInbox(), out: newOutbox(func(f *wire.Frame) error {
		select {
		case <-done:
		case <-hold.C:
		}
		control.Enqueue(wire.EncodeRelay(0, f))
		return nil
	})}
	defer edge.out.Close()
	edge.out.Enqueue(wire.Control(wire.KindPeerAck, 1, 2))
	d := &hostedDevice{rank: 1, member: engine.Member{Group: 1, Rank: 1, GroupSize: 2},
		link: &ringLink{dev: 1, peers: map[int]*endpoint{0: edge}}, start: 3}
	if err := runDevice(d, 3, control); err != nil {
		t.Fatal(err)
	}
	<-done
	control.Close()
	if want := []wire.Kind{wire.KindRelay, wire.KindDone}; !slices.Equal(sent, want) {
		t.Fatalf("the control link carried %v, want %v", sent, want)
	}
}
