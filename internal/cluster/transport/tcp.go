package transport

import (
	"bufio"
	"net"
	"sync"
	"time"

	"pipebd/internal/cluster/wire"
)

// TCP is the real multi-process Network: wire frames, already
// length-prefixed by their header, stream over TCP sockets, each written
// in one vectored write and read through a buffered reader.
// TCP_NODELAY is left on (Go's default) so small control frames — step
// barriers, loss reports — are not delayed behind Nagle batching.
type TCP struct {
	// DialTimeout bounds a single Dial attempt; zero means 5 seconds.
	DialTimeout time.Duration
}

// Listen binds a TCP listener (addr in host:port form; ":0" picks a
// free port, reported by Addr).
func (t TCP) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l}, nil
}

// Dial connects to a worker at addr.
func (t TCP) Dial(addr string) (Conn, error) {
	timeout := t.DialTimeout
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

type tcpListener struct {
	l net.Listener
}

func (l *tcpListener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

func (l *tcpListener) Addr() string { return l.l.Addr().String() }

func (l *tcpListener) Close() error { return l.l.Close() }

type tcpConn struct {
	c net.Conn
	r *bufio.Reader

	mu   sync.Mutex // serializes Send (header + payload must not interleave)
	hdr  [wire.HeaderLen]byte
	iov  [2][]byte
	bufs net.Buffers // iov[:], which a write consumes
}

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{c: c, r: bufio.NewReaderSize(c, 1<<16)}
}

// Send writes the header and the payload in one vectored write, then
// releases the caller's reference to f, written or not.
func (c *tcpConn) Send(f *wire.Frame) error {
	defer f.Release()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := f.PutHeader(&c.hdr); err != nil {
		return err
	}
	c.iov = [2][]byte{c.hdr[:], f.Payload}
	c.bufs = c.iov[:]
	_, err := c.bufs.WriteTo(c.c)
	c.iov = [2][]byte{}
	return err
}

func (c *tcpConn) Recv() (*wire.Frame, error) { return wire.ReadFrame(c.r) }

func (c *tcpConn) Close() error { return c.c.Close() }

var (
	_ Network = TCP{}
	_ Conn    = (*tcpConn)(nil)
)
