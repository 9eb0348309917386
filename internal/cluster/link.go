package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/obs"
)

// sessionError escapes a device loop through panic/recover: the
// engine.DeviceLink interface has no error returns (in-process links
// cannot fail), so a transport failure aborts the loop via a typed panic
// that the worker's device goroutine recovers and reports.
type sessionError struct{ err error }

func sessionFail(format string, args ...any) {
	panic(sessionError{fmt.Errorf(format, args...)})
}

// recoverSession turns any device-loop panic into *errp. sessionError
// carries a transport failure verbatim; anything else (e.g. a shape
// panic from the engine on a decodable-but-invalid frame) is wrapped, so
// one poisoned session can never crash a worker serving other
// coordinators.
func recoverSession(errp *error) {
	switch r := recover().(type) {
	case nil:
	case sessionError:
		if *errp == nil {
			*errp = r.err
		}
	default:
		if *errp == nil {
			*errp = fmt.Errorf("cluster: device loop panicked: %v", r)
		}
	}
}

// outbox decouples frame production from the connection: Enqueue never
// blocks (the queue is unbounded), a single writer goroutine drains it
// into send — a connection's Send, or on a relayed edge the wrap into the
// session's control outbox — and the first send error sticks. This is what
// makes the session layer deadlock-free — no protocol participant ever
// blocks on a peer's receive window while holding work the peer is waiting
// for.
type outbox struct {
	q    *transport.FrameQueue
	done chan struct{}
	mu   sync.Mutex
	err  error
}

func newOutbox(send func(*wire.Frame) error) *outbox {
	o := &outbox{q: transport.NewFrameQueue(), done: make(chan struct{})}
	go func() {
		defer close(o.done)
		for {
			f, err := o.q.Pop()
			if err != nil {
				return // closed and drained
			}
			if o.Err() != nil {
				f.Release() // drain without sending after a failure
				continue
			}
			if err := send(f); err != nil {
				o.fail(err)
			}
		}
	}()
	return o
}

// Enqueue queues a frame for sending, with the caller's reference to it;
// it never blocks. A frame enqueued after Close is dropped without
// failing the outbox: a late frame — a relay racing a graceful teardown —
// must not cancel the flush of what was queued before it.
func (o *outbox) Enqueue(f *wire.Frame) {
	if o.q.Push(f) != nil { // fails only once Close has begun
		f.Release()
	}
}

// Close flushes queued frames and stops the writer.
func (o *outbox) Close() {
	o.q.Close()
	<-o.done
}

// errOutboxKilled marks an outbox abandoned by Kill, not a real send
// failure.
var errOutboxKilled = errors.New("cluster: outbox killed")

// Kill poisons the outbox so the writer drains without sending: queued
// and future frames are discarded. Use on failure paths where the
// connection is already dead — flushing there could block forever on a
// peer that stopped reading.
func (o *outbox) Kill() {
	o.fail(errOutboxKilled)
}

func (o *outbox) fail(err error) {
	o.mu.Lock()
	if o.err == nil {
		o.err = err
	}
	o.mu.Unlock()
}

// Err returns the first send error, if any.
func (o *outbox) Err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}

// inbox is one device's view of the session's inbound frames, demuxed by
// kind. The worker's router goroutine fills it; the device loop pops the
// kind it is waiting for, and releases the frame once it has read it.
// fail wakes all waiters with an error.
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	byKind map[wire.Kind][]*wire.Frame
	err    error
}

func newInbox() *inbox {
	b := &inbox{byKind: make(map[wire.Kind][]*wire.Frame)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *inbox) put(f *wire.Frame) {
	b.mu.Lock()
	b.byKind[f.Kind] = append(b.byKind[f.Kind], f)
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *inbox) fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

// next blocks for the next frame of the given kind.
func (b *inbox) next(kind wire.Kind) (*wire.Frame, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.byKind[kind]) == 0 && b.err == nil {
		b.cond.Wait()
	}
	if q := b.byKind[kind]; len(q) > 0 {
		f := q[0]
		// The queue moves down its array, which the next put reuses: a
		// kind holds at most a few steps' frames (FrameQueue's bound).
		n := copy(q, q[1:])
		q[n] = nil
		b.byKind[kind] = q[:n]
		return f, nil
	}
	return nil, b.err
}

// endpoint is one end of a session link, whichever two parties it joins:
// the coordinator and a worker session (the control link; the
// coordinator's end is device wire.NoDev), two devices' sessions (a peer
// link), or two devices whose edge is relayed (conn is nil: out
// wraps every frame into the session's control outbox, and the session's
// router unwraps the far side's into in).
type endpoint struct {
	conn transport.Conn       // res when the session's retry policy is on
	res  *transport.Resumable // nil without a retry policy
	out  *outbox
	in   *inbox // peer frames by kind; nil on a control link, whose reader dispatches directly
}

// close ends the link. Graceful flushes the outbox before the connection
// closes (whatever the far side still waits for — a Drain, a Repartition,
// a final ack — reaches it); on the failure path the connection closes
// first, so a writer stuck mid-Send on a peer that stopped reading is
// unblocked, and the outbox drains unsent. Retiring first makes the
// teardown's own breaks terminal instead of starting a reconnect.
func (ep *endpoint) close(graceful bool) {
	if ep.res != nil {
		ep.res.Retire()
	}
	if graceful {
		ep.out.Close()
	}
	if ep.conn != nil {
		ep.conn.Close()
	}
	if !graceful {
		ep.out.Kill()
		ep.out.Close()
	}
}

// linkPolicy is what the links of one end of a session share: the attempt
// epoch their hellos carry, the network that dials (and redials) the ones
// this end owns, the clock their deadlines read, and the transient-fault
// absorption wiring, all zero when the session has no retry budget:
// absorbed hears of every fault a link this end dialed to addr (or, with
// addr "", accepted) absorbed, with the frames it replays.
type linkPolicy struct {
	epoch    int64
	net      transport.Network
	clock    transport.Clock
	budget   time.Duration // reconnect budget; 0 keeps every link fail-fast
	logf     func(format string, args ...any)
	metrics  *obs.Metrics
	absorbed func(addr string, replayed int)
}

// open performs the one handshake that opens or resumes a link: dial, the
// worker's Hello, our PeerHello, and the echo proving the session hosting
// h.To picked the connection up. It returns the raw connection and the
// echo's count of frames the far side had received (zero on a fresh link),
// which bounds a resume's replay to exactly what the break swallowed.
func (p linkPolicy) open(addr string, h wire.PeerHello, deadline int64) (transport.Conn, int64, error) {
	conn, err := dialHello(p.net, p.clock, addr, deadline)
	if err != nil {
		return nil, 0, err
	}
	err = conn.Send(wire.EncodePeerHello(h))
	var echo wire.PeerHello
	if err == nil {
		var f *wire.Frame
		if f, err = recvDeadline(conn, p.clock, deadline); err == nil {
			echo, err = wire.DecodePeerHello(f)
		}
	}
	if err == nil && (echo.Epoch != h.Epoch || echo.From != h.To || echo.To != h.From || echo.Resume != h.Resume) {
		err = fmt.Errorf("peer echo names epoch %d link %d->%d (resume %v), want epoch %d link %d->%d (resume %v)",
			echo.Epoch, echo.From, echo.To, echo.Resume, h.Epoch, h.To, h.From, h.Resume)
	}
	if err != nil {
		conn.Close()
		return nil, 0, err
	}
	return conn, echo.Recvd, nil
}

// endpoint makes an established connection — handshake done, no
// application frame counted yet — the local end of a link. Under a retry
// policy it becomes resumable; addr, when set, says this end dialed and so
// owns the redial: a break re-opens the link with the same hello marked
// Resume. The accepting end passes "" and waits to be re-adopted.
func (p linkPolicy) endpoint(conn transport.Conn, local, remote int, name, addr string) *endpoint {
	ep := &endpoint{conn: conn}
	if p.budget > 0 {
		policy := transport.RetryPolicy{Budget: p.budget}
		opts := transport.ResumableOptions{Name: name, Logf: p.logf, Clock: p.clock,
			OnAbsorb: func(replayed int) { p.absorbed(addr, replayed) }}
		if addr != "" {
			opts.Redial = func(recvd int64) (transport.Conn, int64, error) {
				return p.open(addr, wire.PeerHello{Epoch: p.epoch, From: local, To: remote, Resume: true, Recvd: recvd},
					transport.Deadline(p.clock, policy.Budget))
			}
		}
		ep.res = transport.NewResumable(conn, policy, opts)
		ep.conn = ep.res
	}
	ep.out = newOutbox(ep.conn.Send)
	return ep
}
