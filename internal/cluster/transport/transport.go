// Package transport abstracts how cluster peers exchange wire frames: a
// Network can listen on and dial addresses, yielding ordered,
// bidirectional frame streams. Two implementations ship — an in-memory
// loopback network for tests and single-process clusters, and a
// length-prefixed TCP transport for real multi-process runs. Because
// both carry the identical wire encoding, a loopback cluster run is
// bit-equivalent to a TCP one, which the equivalence suite exploits.
package transport

import (
	"errors"

	"pipebd/internal/cluster/wire"
)

// Conn is one end of an ordered, bidirectional frame stream. Send and
// Recv may be called concurrently with each other, but each direction
// must be driven by at most one goroutine at a time. Send takes the
// caller's reference to a pooled frame (wire.Frame.Release), whether or
// not it succeeds; a frame Recv returns holds one reference, the caller's.
type Conn interface {
	// Send writes one frame. It may block on transport backpressure.
	Send(f *wire.Frame) error
	// Recv reads the next frame, blocking until one arrives. It returns
	// io.EOF after the peer closes cleanly.
	Recv() (*wire.Frame, error)
	// Close tears down the stream; the peer's Recv drains already-sent
	// frames and then returns io.EOF.
	Close() error
}

// Listener accepts inbound connections on one address.
type Listener interface {
	// Accept blocks for the next inbound connection.
	Accept() (Conn, error)
	// Addr returns the bound address (useful with ":0"-style requests).
	Addr() string
	// Close stops the listener; blocked Accepts return ErrClosed.
	Close() error
}

// Network creates listeners and dials peers. Implementations must be safe
// for concurrent use.
type Network interface {
	// Listen binds a listener to addr.
	Listen(addr string) (Listener, error)
	// Dial connects to a listener previously bound to addr.
	Dial(addr string) (Conn, error)
}

// ErrClosed is returned by operations on closed listeners or networks.
var ErrClosed = errors.New("transport: closed")
