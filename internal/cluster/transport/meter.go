package transport

import (
	"sync/atomic"

	"pipebd/internal/cluster/wire"
)

// Meter wraps a Network and counts the traffic crossing the connections
// it Dials: bytes and frames, each direction, aggregated atomically
// across all connections. Listen passes through untouched, so the totals
// never double-count — every connection has exactly one dialing side, and
// that side sees the full traffic of both directions (its sends and its
// receives).
//
// Wrapping each endpoint role's dial network in its own Meter therefore
// attributes traffic by role: the coordinator's Meter counts the control
// plane, the workers' shared dial Meter counts the peer data plane. The
// benchmark uses exactly that split to report coordinator-bytes-per-step
// against peer-bytes-per-step.
type Meter struct {
	inner Network

	sentBytes  atomic.Int64
	recvBytes  atomic.Int64
	sentFrames atomic.Int64
	recvFrames atomic.Int64
}

// NewMeter wraps inner with zeroed counters.
func NewMeter(inner Network) *Meter { return &Meter{inner: inner} }

// Totals is a point-in-time snapshot of a Meter's counters.
type Totals struct {
	SentBytes  int64
	RecvBytes  int64
	SentFrames int64
	RecvFrames int64
}

// Bytes returns the total bytes crossing metered connections in both
// directions.
func (t Totals) Bytes() int64 { return t.SentBytes + t.RecvBytes }

// Totals snapshots the counters.
func (m *Meter) Totals() Totals {
	return Totals{
		SentBytes:  m.sentBytes.Load(),
		RecvBytes:  m.recvBytes.Load(),
		SentFrames: m.sentFrames.Load(),
		RecvFrames: m.recvFrames.Load(),
	}
}

// Reset zeroes the counters (e.g. after a warm-up phase).
func (m *Meter) Reset() {
	m.sentBytes.Store(0)
	m.recvBytes.Store(0)
	m.sentFrames.Store(0)
	m.recvFrames.Store(0)
}

// frameBytes is the on-wire size of a frame: the fixed header plus the
// payload. This is exact for the TCP transport and the natural equivalent
// for loopback (which never serializes).
func frameBytes(f *wire.Frame) int64 { return wire.HeaderLen + int64(len(f.Payload)) }

// Listen passes through to the wrapped network.
func (m *Meter) Listen(addr string) (Listener, error) { return m.inner.Listen(addr) }

func (m *Meter) clock() Clock { return ClockOf(m.inner) }

// Dial connects through the wrapped network and meters the connection.
func (m *Meter) Dial(addr string) (Conn, error) {
	conn, err := m.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &meterConn{inner: conn, m: m}, nil
}

type meterConn struct {
	inner Conn
	m     *Meter
}

func (mc *meterConn) Send(f *wire.Frame) error {
	n := frameBytes(f) // before Send, which takes the reference
	if err := mc.inner.Send(f); err != nil {
		return err
	}
	mc.m.sentBytes.Add(n)
	mc.m.sentFrames.Add(1)
	return nil
}

func (mc *meterConn) Recv() (*wire.Frame, error) {
	f, err := mc.inner.Recv()
	if err != nil {
		return nil, err
	}
	mc.m.recvBytes.Add(frameBytes(f))
	mc.m.recvFrames.Add(1)
	return f, nil
}

func (mc *meterConn) Close() error { return mc.inner.Close() }

var (
	_ Network = (*Meter)(nil)
	_ Conn    = (*meterConn)(nil)
)
