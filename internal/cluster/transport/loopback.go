package transport

import (
	"fmt"
	"sync"

	"pipebd/internal/cluster/wire"
)

// Loopback is an in-memory Network: listeners are named entries in a
// shared registry and connections are pairs of unbounded frame queues.
// It exists so cluster tests (and single-process "clusters") can run the
// full coordinator/worker protocol with zero serialization latency and no
// sockets — while still exchanging the exact same encoded frames a TCP
// run would, preserving bit-equivalence between the two.
//
// Frames must not be mutated after Send: the receiver observes the same
// Frame value, and with it the sender's reference to a pooled frame.
type Loopback struct {
	mu        sync.Mutex
	listeners map[string]*loopListener
	next      int
	// Clock, when set before the first Listen or Dial, is the clock of the
	// network and its listeners: every coordinator dialing over it and
	// worker listening on it waits on it. Nil is the wall clock.
	Clock Clock
}

// NewLoopback returns an empty in-memory network.
func NewLoopback() *Loopback {
	return &Loopback{listeners: make(map[string]*loopListener)}
}

func (n *Loopback) clock() Clock { return n.Clock }

// Listen binds a listener. An empty addr (or ":0") allocates a fresh
// "loop-N" address, reported by Addr.
func (n *Loopback) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if addr == "" || addr == ":0" {
		n.next++
		addr = fmt.Sprintf("loop-%d", n.next)
	}
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("transport: loopback address %q already in use", addr)
	}
	l := &loopListener{net: n, addr: addr, accept: make(chan Conn, 16)}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects to the listener bound to addr.
func (n *Loopback) Dial(addr string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no loopback listener at %q", addr)
	}
	client, server := newLoopPair()
	// The closed check and the accept-queue send share l.mu so a
	// concurrent Close (which closes the channel under the same lock)
	// cannot turn the send into a panic. accept is buffered, so the send
	// under the lock never blocks — the full-backlog case errors instead.
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	select {
	case l.accept <- server:
		return client, nil
	default:
		return nil, fmt.Errorf("transport: loopback listener %q accept backlog full", addr)
	}
}

type loopListener struct {
	net    *Loopback
	addr   string
	accept chan Conn
	mu     sync.Mutex
	closed bool
}

func (l *loopListener) Accept() (Conn, error) {
	c, ok := <-l.accept
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}

func (l *loopListener) Addr() string { return l.addr }

func (l *loopListener) clock() Clock { return l.net.Clock }

func (l *loopListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	l.net.mu.Lock()
	delete(l.net.listeners, l.addr)
	l.net.mu.Unlock()
	close(l.accept)
	return nil
}

// newLoopPair returns the two ends of an in-memory connection.
func newLoopPair() (a, b *loopConn) {
	qa, qb := NewFrameQueue(), NewFrameQueue()
	return &loopConn{in: qa, out: qb}, &loopConn{in: qb, out: qa}
}

type loopConn struct {
	in, out *FrameQueue
}

func (c *loopConn) Send(f *wire.Frame) error {
	if err := c.out.Push(f); err != nil {
		f.Release()
		return err
	}
	return nil
}

func (c *loopConn) Recv() (*wire.Frame, error) { return c.in.Pop() }

func (c *loopConn) Close() error {
	c.in.Close()
	c.out.Close()
	return nil
}

var (
	_ Network = (*Loopback)(nil)
	_ Conn    = (*loopConn)(nil)
)
