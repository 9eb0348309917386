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
// in one vectored write and read through a 64 KiB buffered reader. The
// reader is pooled: a connection takes one from a process-wide cache and
// gives it back once its Recv has failed, so a warm connection allocates
// no read buffer. TCP_NODELAY is left on (Go's default) so small control
// frames — step barriers, loss reports — are not delayed behind Nagle
// batching.
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
	// r and rerr belong to the reading side, which one goroutine drives:
	// once a Recv fails, r goes back to the cache and every later Recv
	// returns rerr.
	r    *bufio.Reader
	rerr error

	mu   sync.Mutex // serializes Send (header + payload must not interleave)
	hdr  [wire.HeaderLen]byte
	iov  [2][]byte
	bufs net.Buffers // iov[:], which a write consumes
}

func newTCPConn(c net.Conn) *tcpConn {
	select {
	case br := <-readers:
		br.Reset(c)
		return &tcpConn{c: c, r: br}
	default:
		return &tcpConn{c: c, r: bufio.NewReaderSize(c, 1<<16)}
	}
}

// readers caches the buffered readers of connections whose reading side
// is done, up to 64 (4 MiB). Like wire's frame cache it holds them
// strongly: a garbage collection between two runs does not empty it, as
// it would a sync.Pool.
var readers = make(chan *bufio.Reader, 64)

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

// Recv reads the next frame. Its first error ends the reading side: the
// buffered reader goes back to the cache, and every later Recv returns
// the same error.
func (c *tcpConn) Recv() (*wire.Frame, error) {
	if c.r == nil {
		return nil, c.rerr
	}
	f, err := wire.ReadFrame(c.r)
	if err != nil {
		c.r.Reset(nil) // keeps the buffer, drops the connection
		select {
		case readers <- c.r:
		default:
		}
		c.r, c.rerr = nil, err
	}
	return f, err
}

// Close closes the socket, which fails a Recv blocked on it. It leaves the
// buffered reader to that Recv: a Close may race it.
func (c *tcpConn) Close() error { return c.c.Close() }

var (
	_ Network = TCP{}
	_ Conn    = (*tcpConn)(nil)
)
