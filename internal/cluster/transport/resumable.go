package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pipebd/internal/cluster/wire"
)

// ErrLinkDown marks a resumable link whose reconnect budget is
// exhausted: every redial attempt failed (or no adoption arrived) within
// the policy's budget. Callers classify it with errors.Is to tell a
// persistently dead link from a transient hiccup the layer absorbed.
var ErrLinkDown = errors.New("transport: link down (reconnect budget exhausted)")

// RetryPolicy governs how a Resumable absorbs connection loss: the
// redialing side retries with Retry's backoff, and either side declares
// the link terminally down after Budget (positive) of downtime.
type RetryPolicy struct {
	Budget time.Duration
}

// ackEvery is how many received frames a Resumable acknowledges at once,
// so the far side can trim its replay buffer.
const ackEvery = 8

// RedialFunc re-establishes a broken link: it dials the peer, performs
// the resume hello carrying recvd (the local count of application
// frames received so far), and returns the fresh connection plus the
// peer's received count from the handshake echo. It is called from the
// reconnect goroutine; each invocation should bound its own blocking.
type RedialFunc func(recvd int64) (Conn, int64, error)

// Resumable wraps a Conn in a sequence-counted, ack-tracked stream that
// survives connection loss: both sides count the application frames they
// send and receive, the sender buffers frames the peer has not yet
// acknowledged, and after a break the resume handshake exchanges the two
// received counts so each side replays exactly the frames the other
// never saw — the stream delivered to callers is bit-identical to an
// unbroken one.
//
// The wrapper is installed after the initial handshake, so handshake
// frames live outside the counted stream; KindLinkAck frames are
// likewise consumed internally and never surface to callers. One side
// owns redial (the original dialer, via a RedialFunc): it re-opens the
// link with the hello that opened it — a wire.PeerHello naming the epoch
// and the device pair, the coordinator's end being NoDev — now marked
// Resume and carrying its receive count. The other side waits for that
// hello and re-attaches the fresh connection with Adopt, whose echo is
// the same hello carrying its own count; control links and peer links
// resume alike. Like the Conn it wraps, each direction must be driven by
// at most one goroutine, and a break is noticed by Recv: a link whose
// connection may break needs a reader, as every cluster link has.
type Resumable struct {
	budget   time.Duration
	clock    Clock
	redial   RedialFunc // nil on the accepting side
	name     string
	logf     func(format string, args ...any)
	onAbsorb func(replayed int)

	// sendMu serializes everything that writes to the current connection
	// in stream order: application sends, internal acks, and replay.
	// Lock order is always sendMu before mu.
	sendMu sync.Mutex

	mu      sync.Mutex
	cond    *sync.Cond
	conn    Conn          // nil while the link is down
	err     error         // terminal, ErrClosed after Close; set at most once
	closeCh chan struct{} // closed with err

	sent     int64         // application frames appended to the stream
	ackBase  int64         // frames the peer has confirmed receiving
	buf      []*wire.Frame // unacked outbound frames: buf[i] is frame ackBase+i
	recvd    int64         // application frames received
	sinceAck int           // received frames since the last ack sent
	retired  bool          // teardown expected: the next break is terminal

	downStop func() bool // accepting side: stops the terminal deadline armed while down
}

// ResumableOptions carries the optional wiring of a Resumable.
type ResumableOptions struct {
	// Redial makes this side the reconnect owner; nil waits for Adopt.
	Redial RedialFunc
	// Name labels the link in log lines ("dev 2<->1", "worker w0").
	Name string
	// Logf receives absorption progress lines; nil is silent.
	Logf func(format string, args ...any)
	// OnAbsorb fires after every successful reconnect, before the replay,
	// with the number of frames to replay (metrics hook).
	OnAbsorb func(replayed int)
	// Clock runs the backoff and the budget; nil is Wall.
	Clock Clock
}

// NewResumable wraps an established connection. Call it only after the
// link's initial handshake so both sides agree on where the counted
// stream begins.
func NewResumable(conn Conn, policy RetryPolicy, opts ResumableOptions) *Resumable {
	r := &Resumable{
		budget:   policy.Budget,
		clock:    opts.Clock,
		redial:   opts.Redial,
		name:     opts.Name,
		logf:     opts.Logf,
		onAbsorb: opts.OnAbsorb,
		conn:     conn,
		closeCh:  make(chan struct{}),
	}
	if r.name == "" {
		r.name = "link"
	}
	if r.clock == nil {
		r.clock = Wall
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Send appends one application frame to the stream. It never fails on a
// transient break — the frame is buffered and replayed after reconnect —
// and only returns an error once the link is terminally down or closed.
// A failed write does not take the link down: the connection may still
// hold frames the peer sent before it closed (a Drain, say), so the break
// is the reader's to declare once it has read them. The caller's
// reference to a pooled frame is held until the peer acknowledges the
// frame (trimLocked releases it).
func (r *Resumable) Send(f *wire.Frame) error {
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	r.mu.Lock()
	if err := r.err; err != nil {
		r.mu.Unlock()
		return err
	}
	r.buf = append(r.buf, f) // the caller's reference, held until acked
	r.sent++
	conn := r.conn
	if conn != nil {
		f.Retain() // conn.Send's
	}
	r.mu.Unlock()
	if conn != nil {
		_ = conn.Send(f) // on failure the frame waits in buf for the replay
	}
	return nil
}

// Recv returns the next application frame of the stream, blocking
// through reconnects. It fails only when the link is terminally down or
// the local side closed.
func (r *Resumable) Recv() (*wire.Frame, error) {
	for {
		r.mu.Lock()
		for r.conn == nil && r.err == nil {
			r.cond.Wait()
		}
		if err := r.err; err != nil {
			r.mu.Unlock()
			return nil, err
		}
		conn := r.conn
		r.mu.Unlock()
		f, err := conn.Recv()
		if err != nil {
			r.linkBroke(conn, err)
			continue
		}
		r.mu.Lock()
		if r.conn != conn {
			// The connection was replaced while this frame was in flight;
			// anything it carried past our reported high-water mark will be
			// replayed on the new connection, so drop it uncounted.
			r.mu.Unlock()
			f.Release()
			continue
		}
		if f.Kind == wire.KindLinkAck {
			if acked, err := wire.DecodeLinkAck(f); err == nil {
				r.trimLocked(acked)
			}
			r.mu.Unlock()
			f.Release()
			continue
		}
		r.recvd++
		r.sinceAck++
		needAck := r.sinceAck >= ackEvery
		if needAck {
			r.sinceAck = 0
		}
		recvd := r.recvd
		r.mu.Unlock()
		if needAck {
			r.sendAck(recvd)
		}
		return f, nil
	}
}

// trimLocked releases the buffered frames the peer confirmed receiving
// and moves the rest to the front of buf's array, which the next Send
// appends to.
func (r *Resumable) trimLocked(acked int64) {
	drop := acked - r.ackBase
	if drop <= 0 || drop > int64(len(r.buf)) {
		return
	}
	for _, f := range r.buf[:drop] {
		f.Release()
	}
	n := copy(r.buf, r.buf[drop:])
	clear(r.buf[n:])
	r.buf = r.buf[:n]
	r.ackBase = acked
	r.cond.Broadcast()
}

// sendAck ships the cumulative received count. Like Send it leaves a
// failed write to the reader; a lost ack costs nothing, as the resume
// handshake carries a fresher count.
func (r *Resumable) sendAck(recvd int64) {
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	r.mu.Lock()
	conn := r.conn
	r.mu.Unlock()
	if conn != nil {
		_ = conn.Send(wire.EncodeLinkAck(recvd))
	}
}

// linkBroke transitions the link into the down state (once per
// connection, when its reader fails): the redial owner starts its
// reconnect loop, the accepting side arms the terminal deadline and waits
// for adoption.
func (r *Resumable) linkBroke(conn Conn, cause error) {
	r.mu.Lock()
	if r.err != nil || r.conn != conn {
		r.mu.Unlock()
		return
	}
	r.conn = nil
	r.cond.Broadcast()
	if r.retired {
		r.mu.Unlock()
		conn.Close()
		r.die(cause)
		return
	}
	redial := r.redial
	r.armDownLocked(cause)
	r.mu.Unlock()
	conn.Close()
	if r.logf != nil {
		r.logf("transport: %s lost (%v); absorbing", r.name, cause)
	}
	if redial != nil {
		go r.reconnectLoop(cause)
	}
}

// armDownLocked starts the accepting side's terminal deadline, unless one
// is counting down or the link is past absorbing: a link not re-adopted
// within the budget dies. Callers hold r.mu.
func (r *Resumable) armDownLocked(cause error) {
	if r.redial != nil || r.downStop != nil || r.retired || r.err != nil {
		return
	}
	r.downStop = r.clock.AfterFunc(r.budget, func() {
		r.die(fmt.Errorf("transport: %s not re-adopted within %v (last error: %v): %w",
			r.name, r.budget, cause, ErrLinkDown))
	})
}

// reconnectLoop redials until a connection is back or the budget
// elapses, then declares the link terminally down. A redial that lands
// after the link closed or died is discarded by install.
func (r *Resumable) reconnectLoop(cause error) {
	err := Retry(r.clock, Deadline(r.clock, r.budget), r.closeCh, func() error {
		r.mu.Lock()
		if r.err != nil || r.conn != nil || r.retired {
			r.mu.Unlock()
			return nil // nothing left to absorb
		}
		recvd, redial := r.recvd, r.redial
		r.mu.Unlock()
		conn, peerRecvd, err := redial(recvd)
		if err == nil {
			r.install(conn, peerRecvd, nil)
		}
		return err
	})
	if err != nil {
		r.die(fmt.Errorf("transport: %s reconnect budget %v exhausted (dial: %v; broke: %v): %w",
			r.name, r.budget, err, cause, ErrLinkDown))
	}
}

// Adopt re-attaches a fresh connection on the accepting side: the peer
// redialed and its resume handshake reported peerRecvd application
// frames received. echo builds the handshake reply from this side's own
// received count; it is sent on the raw connection before any replay,
// completing the handshake the dialer is waiting on.
func (r *Resumable) Adopt(conn Conn, peerRecvd int64, echo func(recvd int64) *wire.Frame) error {
	return r.install(conn, peerRecvd, echo)
}

// install swaps conn in as the live connection — after the echo, when
// there is one — and replays every buffered frame past peerRecvd. An error
// means conn was discarded: the link had ended, ended now over a
// peerRecvd outside the window, or the echo failed and the link is still
// down.
func (r *Resumable) install(conn Conn, peerRecvd int64, echo func(recvd int64) *wire.Frame) error {
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	r.mu.Lock()
	err := r.err
	if err == nil && (peerRecvd < r.ackBase || peerRecvd > r.sent) {
		err = fmt.Errorf("transport: %s resume reports %d frames received, outside acked window [%d, %d]: %w",
			r.name, peerRecvd, r.ackBase, r.sent, ErrLinkDown)
		defer r.die(err)
	}
	if err != nil {
		r.mu.Unlock()
		conn.Close()
		return err
	}
	// Detach any still-installed connection first (the peer noticed the
	// break before we did): once detached, frames still draining from it
	// are dropped uncounted by Recv, so the received count frozen below is
	// exactly what the replay contract needs.
	old := r.conn
	r.conn = nil
	r.trimLocked(peerRecvd)
	recvd := r.recvd
	r.mu.Unlock()
	if old != nil {
		old.Close()
	}
	if echo != nil {
		if err := conn.Send(echo(recvd)); err != nil {
			conn.Close()
			// Still down: count down to the next adoption.
			r.mu.Lock()
			r.armDownLocked(fmt.Errorf("echo failed: %w", err))
			r.mu.Unlock()
			return err
		}
	}
	r.mu.Lock()
	if err := r.err; err != nil {
		r.mu.Unlock()
		conn.Close()
		return err
	}
	r.conn = conn
	r.stopDownLocked()
	r.sinceAck = 0
	// The replay holds its own reference to every frame it sends: an ack
	// arriving meanwhile trims buf, and releases buf's.
	replay := append([]*wire.Frame(nil), r.buf...)
	for _, f := range replay {
		f.Retain()
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	// The fault is absorbed once the link is back, before the replay: a
	// break that cuts the replay short is the next fault, so both ends of
	// the link count one absorption per break.
	if r.logf != nil {
		r.logf("transport: %s absorbed a fault: reconnected, replaying %d frame(s)", r.name, len(replay))
	}
	if r.onAbsorb != nil {
		r.onAbsorb(len(replay))
	}
	for i, f := range replay {
		if conn.Send(f) != nil {
			// Installed; the reader declares the new break.
			for _, f := range replay[i+1:] {
				f.Release()
			}
			break
		}
	}
	return nil
}

// die ends the link with a terminal error and logs it.
func (r *Resumable) die(err error) {
	r.mu.Lock()
	ended := r.endLocked(err)
	r.mu.Unlock()
	if ended && r.logf != nil {
		r.logf("transport: %s terminally down: %v", r.name, err)
	}
}

// endLocked records the terminal error, unless the link already has one,
// and wakes every waiter. Callers hold r.mu.
func (r *Resumable) endLocked(err error) bool {
	if r.err != nil {
		return false
	}
	r.err = err
	r.stopDownLocked()
	close(r.closeCh)
	r.cond.Broadcast()
	return true
}

// stopDownLocked stops the terminal deadline, if one is counting down.
// Callers hold r.mu.
func (r *Resumable) stopDownLocked() {
	if r.downStop != nil {
		r.downStop()
		r.downStop = nil
	}
}

// Retire disables absorption: the next break (or EOF) becomes a plain
// terminal error instead of a reconnect, and a link already down dies
// immediately. Sessions call it when teardown is expected — a drain
// notice arrived or the run completed — so a deliberate close by the
// peer is not mistaken for a fault.
func (r *Resumable) Retire() {
	r.mu.Lock()
	r.retired = true
	r.redial = nil
	down := r.conn == nil && r.err == nil
	r.mu.Unlock()
	if down {
		r.die(fmt.Errorf("transport: %s retired while down", r.name))
	}
}

// Reconnecting reports whether the link is currently down with
// absorption still in progress (a heartbeat rule should not count
// silence against the link while it is true).
func (r *Resumable) Reconnecting() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.conn == nil && r.err == nil
}

// Close tears the link down locally: the current connection closes, the
// reconnect machinery stops, and pending Send/Recv return ErrClosed.
func (r *Resumable) Close() error {
	r.mu.Lock()
	conn := r.conn
	r.conn = nil
	r.endLocked(ErrClosed)
	r.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}
