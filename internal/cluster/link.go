package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/obs"
	"pipebd/internal/tensor"
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

// assembleShards concatenates a split group's boundary-activation shards
// along dim 0 in rank order; a single shard is the batch. Hub (coordinator)
// and ring (downstream device) both assemble here: identical bytes.
func assembleShards(parts []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(parts) == 1 {
		return parts[0], nil
	}
	per := parts[0].Numel()
	shape := append([]int(nil), parts[0].Shape()...)
	shape[0] *= len(parts)
	full := tensor.New(shape...)
	for j, p := range parts {
		if p.Numel() != per {
			return nil, fmt.Errorf("shard sizes differ: rank %d has %d elements, rank 0 %d", j, p.Numel(), per)
		}
		copy(full.Data()[j*per:(j+1)*per], p.Data())
	}
	return full, nil
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
				continue // drain without sending after a failure
			}
			if err := send(f); err != nil {
				o.fail(err)
			}
		}
	}()
	return o
}

// Enqueue queues a frame for sending; it never blocks.
func (o *outbox) Enqueue(f *wire.Frame) {
	if err := o.q.Push(f); err != nil {
		o.fail(err)
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
// kind it is waiting for. fail wakes all waiters with an error.
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
		q[0] = nil
		b.byKind[kind] = q[1:]
		return f, nil
	}
	return nil, b.err
}

// endpoint is one end of a session link, whichever two parties it joins:
// the coordinator and a worker session (the control link; the
// coordinator's end is device wire.NoDev), two devices' sessions (a peer
// link), or two devices whose direct link is degraded (conn is nil: out
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
// this end owns, and the transient-fault absorption wiring, all zero when
// Run.Retry is off.
type linkPolicy struct {
	epoch   int64
	net     transport.Network
	retry   wire.RetrySpec
	logf    func(format string, args ...any)
	metrics *obs.Metrics
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

// open performs the one handshake that opens or resumes a link: dial, the
// worker's Hello, our PeerHello, and the echo proving the session hosting
// h.To picked the connection up. It returns the raw connection and the
// echo's count of frames the far side had received (zero on a fresh link),
// which bounds a resume's replay to exactly what the break swallowed.
func (p linkPolicy) open(addr string, h wire.PeerHello, deadline time.Time) (transport.Conn, int64, error) {
	conn, err := dialHello(p.net, addr, deadline)
	if err != nil {
		return nil, 0, err
	}
	err = conn.Send(wire.EncodePeerHello(h))
	var echo wire.PeerHello
	if err == nil {
		var f *wire.Frame
		if f, err = recvDeadline(conn, deadline); err == nil {
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
	if p.retry.Enabled() {
		policy := retryPolicy(p.retry)
		opts := transport.ResumableOptions{Name: name, Logf: p.logf,
			OnAbsorb: func(replayed int) {
				p.metrics.Add("link_faults_absorbed", 1)
				p.metrics.Add("link_frames_replayed", int64(replayed))
			}}
		if addr != "" {
			opts.Redial = func(recvd int64) (transport.Conn, int64, error) {
				return p.open(addr, wire.PeerHello{Epoch: p.epoch, From: local, To: remote, Resume: true, Recvd: recvd},
					time.Now().Add(policy.Budget))
			}
		}
		ep.res = transport.NewResumable(conn, policy, opts)
		ep.conn = ep.res
	}
	ep.out = newOutbox(ep.conn.Send)
	return ep
}

// clusterLink implements engine.DeviceLink over the worker's connection
// to the coordinator: relayed activations, reduced gradients, and barrier
// releases arrive through the device's inbox (a first-group device reads
// its batches from the session's local schedule instead); outputs, raw
// gradients, losses, and barrier arrivals leave through the shared
// outbox. The coordinator does the routing (relay assembly, rank-ordered
// gradient reduction, barrier counting) — see coordinator.go for the
// matching hub logic.
type clusterLink struct {
	dev        int32
	firstGroup bool // the first group reads inputs, the rest receive them
	lastGroup  bool // the last group relays no output
	dpu        bool
	in         *inbox
	out        *outbox
	// inputs is the session's batch schedule (inputs[s] is step s's full
	// batch), regenerated from the run's data recipe or carried in the
	// Assign; set only on first-group devices.
	inputs []*tensor.Tensor
	// snapshot, when set, encodes the device's post-step recovery state
	// (student params + optimizer velocities); FinishStep ships it to the
	// coordinator after every step the session's snapshot policy covers,
	// so a restart can resume from the newest commonly covered step.
	snapshot func(step int) *wire.Frame
	snap     wire.SnapshotPolicy

	// trace, when non-nil, is the device's span track; FinishStep drains
	// it at each step boundary so span batches travel with (not instead
	// of) the session's regular traffic. shipSpans routes drained batches
	// to the coordinator over KindSpans frames; sink receives them on the
	// worker side (local trace dumps, worker metrics) together with how
	// many spans the track dropped since the previous flush. Both may be
	// active.
	trace     *obs.Track
	shipSpans bool
	sink      func(track string, spans []obs.Span, dropped int64)
	dropped   int64 // the track's drop count as of the last flush
}

// flushSpans drains the device's span buffer and routes the batch to the
// configured consumers. Called at step boundaries and once after the
// loop, on the device's own goroutine — Drain and Begin never race.
func (l *clusterLink) flushSpans() {
	if l.trace == nil {
		return
	}
	spans := l.trace.Drain()
	dropped := l.trace.Dropped() - l.dropped
	l.dropped += dropped
	if len(spans) == 0 && dropped == 0 {
		return
	}
	if l.sink != nil {
		l.sink(l.trace.Name(), spans, dropped)
	}
	if l.shipSpans && len(spans) > 0 {
		l.out.Enqueue(wire.EncodeSpans(wire.SpanBatch{Dev: l.dev, Track: l.trace.Name(), Spans: spans}))
	}
}

func (l *clusterLink) recv(kind wire.Kind, step int) *wire.Frame {
	f, err := l.in.next(kind)
	if err != nil {
		sessionFail("cluster: dev %d waiting for %v frame of step %d: %w", l.dev, kind, step, err)
	}
	if int(f.Step) != step {
		sessionFail("cluster: dev %d got %v frame for step %d, want %d", l.dev, kind, f.Step, step)
	}
	return f
}

// RecvInput returns the step's full-batch input. The first group reads the
// batch from its local schedule: no wire traffic at all. Sharing one
// tensor across co-hosted members is safe for the same reason the
// in-process pipeline hands every device the same batch — members only
// read their shard.
func (l *clusterLink) RecvInput(step int) *tensor.Tensor {
	if l.firstGroup {
		if step >= len(l.inputs) {
			sessionFail("cluster: dev %d asked for the input of step %d, schedule has %d", l.dev, step, len(l.inputs))
		}
		return l.inputs[step]
	}
	f := l.recv(wire.KindInput, step)
	t, err := wire.DecodeTensor(f)
	if err != nil {
		sessionFail("cluster: dev %d decoding input of step %d: %w", l.dev, step, err)
	}
	return t
}

func (l *clusterLink) SendOutput(step int, out *tensor.Tensor) {
	if l.lastGroup {
		return
	}
	l.out.Enqueue(wire.EncodeTensor(wire.KindOutput, l.dev, int32(step), out))
}

func (l *clusterLink) AllReduce(step int, grads []*tensor.Tensor, scratch *tensor.Arena) {
	l.out.Enqueue(wire.EncodeTensors(wire.KindGrads, l.dev, int32(step), grads))
	f := l.recv(wire.KindGradsReduced, step)
	reduced, err := wire.DecodeTensors(f)
	if err != nil {
		sessionFail("cluster: dev %d decoding reduced gradients of step %d: %w", l.dev, step, err)
	}
	if len(reduced) != len(grads) {
		sessionFail("cluster: dev %d got %d reduced gradients, want %d", l.dev, len(reduced), len(grads))
	}
	for i, t := range reduced {
		if !t.SameShape(grads[i]) {
			sessionFail("cluster: dev %d reduced gradient %d shape %v, want %v", l.dev, i, t.Shape(), grads[i].Shape())
		}
		grads[i].CopyFrom(t)
	}
}

func (l *clusterLink) ReportLosses(step int, losses []float64) {
	l.out.Enqueue(wire.EncodeLosses(l.dev, int32(step), losses))
}

func (l *clusterLink) StepBarrier(step int) {
	if l.dpu {
		return
	}
	l.out.Enqueue(wire.Control(wire.KindStepDone, l.dev, int32(step)))
	l.recv(wire.KindStepGo, step)
}

// FinishStep implements engine.StepFinisher: once the step's updates are
// installed, the device's state is exactly "trained through step" — the
// snapshot the coordinator needs to restart this device bit-identically.
// The policy's interval gates emission: with interval k only every k-th
// step ships, trading k-fold less snapshot traffic for up to k replayed
// steps on recovery.
func (l *clusterLink) FinishStep(step int) {
	if l.snapshot != nil && l.snap.Covers(step) {
		r := l.trace.Begin(obs.CatSnapshot, "snapshot_write")
		f := l.snapshot(step)
		r.End()
		l.out.Enqueue(f)
	}
	l.flushSpans()
}
