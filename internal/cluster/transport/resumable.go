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

// RetryPolicy governs how a Resumable absorbs connection loss: redial
// (or await adoption) with exponential backoff starting at Backoff,
// declare the link terminally down after Budget of downtime, and ack
// every AckEvery received frames so the far side can trim its replay
// buffer. The zero value of Backoff and AckEvery take defaults; Budget
// must be positive for absorption to be meaningful.
type RetryPolicy struct {
	Backoff  time.Duration
	Budget   time.Duration
	AckEvery int
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Backoff <= 0 {
		p.Backoff = 10 * time.Millisecond
	}
	if p.Budget <= 0 {
		p.Budget = time.Second
	}
	if p.AckEvery <= 0 {
		p.AckEvery = 8
	}
	return p
}

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
// at most one goroutine.
type Resumable struct {
	policy   RetryPolicy
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
	conn    Conn  // nil while the link is down
	err     error // terminal; set at most once
	closed  bool
	closeCh chan struct{} // closed on Close or terminal error

	sent     int64         // application frames appended to the stream
	ackBase  int64         // frames the peer has confirmed receiving
	buf      []*wire.Frame // unacked outbound frames: buf[i] is frame ackBase+i
	recvd    int64         // application frames received
	sinceAck int           // received frames since the last ack sent
	retired  bool          // teardown expected: the next break is terminal

	downTimer *time.Timer // accepting side: terminal deadline while down
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
}

// NewResumable wraps an established connection. Call it only after the
// link's initial handshake so both sides agree on where the counted
// stream begins.
func NewResumable(conn Conn, policy RetryPolicy, opts ResumableOptions) *Resumable {
	r := &Resumable{
		policy:   policy.withDefaults(),
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
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Send appends one application frame to the stream. It never fails on a
// transient break — the frame is buffered and replayed after reconnect —
// and only returns an error once the link is terminally down or closed.
func (r *Resumable) Send(f *wire.Frame) error {
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	r.mu.Lock()
	if r.err != nil {
		err := r.err
		r.mu.Unlock()
		return err
	}
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	r.buf = append(r.buf, f)
	r.sent++
	conn := r.conn
	r.mu.Unlock()
	if conn == nil {
		return nil // down: buffered for replay
	}
	if err := conn.Send(f); err != nil {
		r.linkBroke(conn, err)
	}
	return nil
}

// Recv returns the next application frame of the stream, blocking
// through reconnects. It fails only when the link is terminally down or
// the local side closed.
func (r *Resumable) Recv() (*wire.Frame, error) {
	for {
		r.mu.Lock()
		for r.conn == nil && r.err == nil && !r.closed {
			r.cond.Wait()
		}
		if r.err != nil {
			err := r.err
			r.mu.Unlock()
			return nil, err
		}
		if r.closed {
			r.mu.Unlock()
			return nil, ErrClosed
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
			continue
		}
		if f.Kind == wire.KindLinkAck {
			if acked, err := wire.DecodeLinkAck(f); err == nil {
				r.trimLocked(acked)
			}
			r.mu.Unlock()
			continue
		}
		r.recvd++
		r.sinceAck++
		needAck := r.sinceAck >= r.policy.AckEvery
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

// trimLocked drops buffered frames the peer confirmed receiving.
func (r *Resumable) trimLocked(acked int64) {
	drop := acked - r.ackBase
	if drop <= 0 || drop > int64(len(r.buf)) {
		return
	}
	rest := r.buf[drop:]
	r.buf = append(r.buf[:0:0], rest...) // reallocate so acked frames free
	r.ackBase = acked
	r.cond.Broadcast()
}

// sendAck ships the cumulative received count; a failure here is just
// another link break.
func (r *Resumable) sendAck(recvd int64) {
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	r.mu.Lock()
	conn := r.conn
	r.mu.Unlock()
	if conn == nil {
		return // down: the resume handshake carries a fresher count anyway
	}
	if err := conn.Send(wire.EncodeLinkAck(recvd)); err != nil {
		r.linkBroke(conn, err)
	}
}

// linkBroke transitions the link into the down state (once per
// connection): the redial owner starts its reconnect loop, the accepting
// side arms the terminal deadline and waits for adoption.
func (r *Resumable) linkBroke(conn Conn, cause error) {
	r.mu.Lock()
	if r.closed || r.err != nil || r.conn != conn {
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
	if redial == nil && r.downTimer == nil {
		r.downTimer = time.AfterFunc(r.policy.Budget, func() {
			r.die(fmt.Errorf("transport: %s not re-adopted within %v (last error: %v): %w",
				r.name, r.policy.Budget, cause, ErrLinkDown))
		})
	}
	r.mu.Unlock()
	conn.Close()
	if r.logf != nil {
		r.logf("transport: %s lost (%v); absorbing", r.name, cause)
	}
	if redial != nil {
		go r.reconnectLoop(cause)
	}
}

// reconnectLoop redials with exponential backoff until the budget
// elapses, then declares the link terminally down.
func (r *Resumable) reconnectLoop(cause error) {
	deadline := time.Now().Add(r.policy.Budget)
	backoff := r.policy.Backoff
	for {
		r.mu.Lock()
		if r.closed || r.err != nil || r.conn != nil || r.retired {
			r.mu.Unlock()
			return
		}
		recvd := r.recvd
		redial := r.redial
		r.mu.Unlock()
		conn, peerRecvd, err := redial(recvd)
		if err == nil {
			if r.install(conn, peerRecvd, nil) {
				return
			}
			continue // raced with Close or a concurrent break
		}
		if !time.Now().Before(deadline) {
			r.die(fmt.Errorf("transport: %s reconnect budget %v exhausted (dial: %v; broke: %v): %w",
				r.name, r.policy.Budget, err, cause, ErrLinkDown))
			return
		}
		wait := backoff
		if remaining := time.Until(deadline); wait > remaining {
			wait = remaining
		}
		select {
		case <-time.After(wait):
		case <-r.closeCh:
			return
		}
		backoff *= 2
	}
}

// Adopt re-attaches a fresh connection on the accepting side: the peer
// redialed and its resume handshake reported peerRecvd application
// frames received. echo, when non-nil, builds the handshake reply from
// this side's own received count; it is sent on the raw connection
// before any replay, completing the handshake the dialer is waiting on.
func (r *Resumable) Adopt(conn Conn, peerRecvd int64, echo func(recvd int64) *wire.Frame) error {
	if r.install(conn, peerRecvd, echo) {
		return nil
	}
	r.mu.Lock()
	err := r.err
	r.mu.Unlock()
	if err == nil {
		err = ErrClosed
	}
	return err
}

// install swaps conn in as the live connection and replays every
// buffered frame past peerRecvd. It reports whether the connection was
// accepted; a false return means the link closed or died first and conn
// was discarded.
func (r *Resumable) install(conn Conn, peerRecvd int64, echo func(recvd int64) *wire.Frame) bool {
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	r.mu.Lock()
	if r.closed || r.err != nil {
		r.mu.Unlock()
		conn.Close()
		return false
	}
	if peerRecvd < r.ackBase || peerRecvd > r.sent {
		r.mu.Unlock()
		conn.Close()
		r.die(fmt.Errorf("transport: %s resume reports %d frames received, outside acked window [%d, %d]: %w",
			r.name, peerRecvd, r.ackBase, r.sent, ErrLinkDown))
		return false
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
			// Still down; re-arm the terminal deadline for the next attempt.
			r.mu.Lock()
			if !r.closed && r.err == nil && r.redial == nil && r.downTimer == nil && !r.retired {
				r.downTimer = time.AfterFunc(r.policy.Budget, func() {
					r.die(fmt.Errorf("transport: %s not re-adopted within %v (echo failed: %v): %w",
						r.name, r.policy.Budget, err, ErrLinkDown))
				})
			}
			r.mu.Unlock()
			return false
		}
	}
	r.mu.Lock()
	if r.closed || r.err != nil {
		r.mu.Unlock()
		conn.Close()
		return false
	}
	r.conn = conn
	if r.downTimer != nil {
		r.downTimer.Stop()
		r.downTimer = nil
	}
	r.sinceAck = 0
	replay := r.buf
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
	for _, f := range replay {
		if err := conn.Send(f); err != nil {
			r.linkBroke(conn, err)
			return true // installed; the new break restarts absorption
		}
	}
	return true
}

// die records the terminal error and wakes every waiter.
func (r *Resumable) die(err error) {
	r.mu.Lock()
	if r.closed || r.err != nil {
		r.mu.Unlock()
		return
	}
	r.err = err
	if r.downTimer != nil {
		r.downTimer.Stop()
		r.downTimer = nil
	}
	close(r.closeCh)
	r.cond.Broadcast()
	r.mu.Unlock()
	if r.logf != nil {
		r.logf("transport: %s terminally down: %v", r.name, err)
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
	down := r.conn == nil && r.err == nil && !r.closed
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
	return r.conn == nil && r.err == nil && !r.closed
}

// Close tears the link down locally: the current connection closes, the
// reconnect machinery stops, and pending Send/Recv return ErrClosed.
func (r *Resumable) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	conn := r.conn
	r.conn = nil
	if r.downTimer != nil {
		r.downTimer.Stop()
		r.downTimer = nil
	}
	if r.err == nil {
		close(r.closeCh)
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}
