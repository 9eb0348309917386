package transport

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipebd/internal/cluster/wire"
	"pipebd/internal/testutil"
)

// resumableHarness wires two Resumables over a loopback listener the way
// the cluster does: the dialer side owns redial with a resume PeerHello
// (here the coordinator's, From NoDev), the acceptor side adopts redialed
// connections and echoes the hello with its own receive count. Both run
// on a manual clock: backoff and budget move only when a test advances it.
type resumableHarness struct {
	a, b  *Resumable // a dials, b accepts
	lis   Listener
	clock *testutil.ManualClock
	wrap  func(Conn) Conn // when set, wraps every connection a redials
}

func newResumableHarness(t *testing.T, budget time.Duration, aOpts, bOpts ResumableOptions) *resumableHarness {
	t.Helper()
	net := NewLoopback()
	lis, err := net.Listen("")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	accepted := make(chan Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	rawA, err := net.Dial(lis.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	rawB := <-accepted

	h := &resumableHarness{lis: lis, clock: &testutil.ManualClock{}}
	aOpts.Clock, bOpts.Clock = h.clock, h.clock
	policy := RetryPolicy{Budget: budget}
	aOpts.Redial = func(recvd int64) (Conn, int64, error) {
		c, err := net.Dial(lis.Addr())
		if err != nil {
			return nil, 0, err
		}
		if err := c.Send(wire.EncodePeerHello(resumeHello(int(wire.NoDev), 0, recvd))); err != nil {
			c.Close()
			return nil, 0, err
		}
		f, err := c.Recv()
		if err != nil {
			c.Close()
			return nil, 0, err
		}
		echo, err := wire.DecodePeerHello(f)
		if err != nil {
			c.Close()
			return nil, 0, err
		}
		if h.wrap != nil {
			return h.wrap(c), echo.Recvd, nil
		}
		return c, echo.Recvd, nil
	}
	h.a = NewResumable(rawA, policy, aOpts)
	h.b = NewResumable(rawB, policy, bOpts)

	// Adoption loop: every later accepted connection carries a resume
	// handshake and re-attaches to b.
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go func(c Conn) {
				f, err := c.Recv()
				if err != nil {
					c.Close()
					return
				}
				hello, err := wire.DecodePeerHello(f)
				if err != nil || !hello.Resume {
					c.Close()
					return
				}
				h.b.Adopt(c, hello.Recvd, func(recvd int64) *wire.Frame {
					return wire.EncodePeerHello(resumeHello(hello.To, hello.From, recvd))
				})
			}(c)
		}
	}()
	t.Cleanup(func() {
		h.a.Close()
		h.b.Close()
		h.lis.Close()
	})
	return h
}

func resumeHello(from, to int, recvd int64) wire.PeerHello {
	return wire.PeerHello{Epoch: 1, From: from, To: to, Resume: true, Recvd: recvd}
}

// waitLink blocks until cond, read under r.mu, holds. r.cond wakes it at
// every change of the link's state; it fails the test with what after
// five seconds of wall time.
func waitLink(t *testing.T, r *Resumable, what string, cond func() bool) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if !WaitCond(Wall, r.cond, Deadline(Wall, 5*time.Second), cond) {
		t.Fatalf("timed out waiting for %s", what)
	}
}

// breakLink closes the current underlying connection of r, simulating a
// transport fault; both sides observe a broken stream.
func breakLink(t *testing.T, r *Resumable) {
	t.Helper()
	var c Conn
	waitLink(t, r, "the link to come back up", func() bool { c = r.conn; return c != nil })
	c.Close()
}

func seqFrame(i int) *wire.Frame {
	return wire.EncodeLosses(0, int32(i), []float64{float64(i)})
}

// TestResumableReplaysThroughBreaks: a bidirectional stream survives
// repeated connection loss bit-identically — every frame arrives exactly
// once, in order, on both sides. Each break comes once a's receiver has
// seen the break's frame count: both senders hold at that frame until the
// link is broken, so a's receiver is waiting on the broken connection and
// a, the side that redials, always notices.
func TestResumableReplaysThroughBreaks(t *testing.T) {
	var absorbs atomic.Int64
	h := newResumableHarness(t, 5*time.Second,
		ResumableOptions{Name: "a", OnAbsorb: func(int) { absorbs.Add(1) }}, ResumableOptions{Name: "b"})

	const n = 60
	breaks := []int{15, 30, 45}
	release := make([]chan struct{}, len(breaks))
	for j := range release {
		release[j] = make(chan struct{})
	}
	released := 0
	defer func() {
		for _, c := range release[released:] {
			close(c)
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	send := func(r *Resumable) {
		defer wg.Done()
		for i, j := 0, 0; i < n; i++ {
			if j < len(breaks) && i == breaks[j] {
				<-release[j]
				j++
			}
			if err := r.Send(seqFrame(i)); err != nil {
				errs <- fmt.Errorf("send %d: %w", i, err)
				return
			}
		}
	}
	seen := make(chan struct{}, len(breaks)) // a's receiver reached a break
	recv := func(r *Resumable, label string) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if r == h.a && slices.Contains(breaks, i) {
				seen <- struct{}{}
			}
			f, err := r.Recv()
			if err != nil {
				errs <- fmt.Errorf("%s recv %d: %w", label, i, err)
				return
			}
			if int(f.Step) != i {
				errs <- fmt.Errorf("%s got step %d, want %d", label, f.Step, i)
				return
			}
		}
	}
	wg.Add(4)
	go send(h.a)
	go send(h.b)
	go recv(h.a, "a")
	go recv(h.b, "b")

	for range breaks {
		select {
		case <-seen:
		case err := <-errs:
			t.Fatal(err)
		}
		breakLink(t, h.a)
		close(release[released])
		released++
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := absorbs.Load(); n != int64(len(breaks)) {
		t.Errorf("absorbed %d faults, want one per break (%d)", n, len(breaks))
	}
}

// failFirstSend is a connection whose first Send breaks it.
type failFirstSend struct {
	Conn
	once sync.Once
}

func (c *failFirstSend) Send(f *wire.Frame) error {
	var err error
	c.once.Do(func() {
		c.Conn.Close()
		err = errors.New("injected break")
	})
	if err != nil {
		return err
	}
	return c.Conn.Send(f)
}

// TestResumableCountsABreakMidReplay: a break that cuts a resume's replay
// short is one more fault, and both ends count it: each reports one
// absorption per break, once the link is back and before its replay, with
// the number of frames it is about to replay. Here a's first redial breaks
// on the first frame it replays, so a absorbs twice, replaying one frame
// each time, and b, which has nothing to replay, adopts twice.
func TestResumableCountsABreakMidReplay(t *testing.T) {
	absorbed := map[string]chan int{"a": make(chan int, 4), "b": make(chan int, 4)}
	opts := func(name string) ResumableOptions {
		return ResumableOptions{Name: name, OnAbsorb: func(n int) { absorbed[name] <- n }}
	}
	h := newResumableHarness(t, 5*time.Second, opts("a"), opts("b"))
	// a's reader notices the breaks (no frame comes back); b reads nothing
	// yet, so the frame stays unreceived and a replays it.
	go h.a.Recv()
	if err := h.a.Send(seqFrame(0)); err != nil {
		t.Fatalf("send: %v", err)
	}
	var first sync.Once
	h.wrap = func(c Conn) Conn {
		first.Do(func() { c = &failFirstSend{Conn: c} })
		return c
	}
	breakLink(t, h.a)
	deadline := time.NewTimer(5 * time.Second)
	defer deadline.Stop()
	for _, want := range []struct {
		end      string
		replayed int
	}{{"a", 1}, {"a", 1}, {"b", 0}, {"b", 0}} {
		select {
		case n := <-absorbed[want.end]:
			if n != want.replayed {
				t.Fatalf("%s absorbed a fault replaying %d frame(s), want %d", want.end, n, want.replayed)
			}
		case <-deadline.C:
			t.Fatalf("%s absorbed fewer faults than the two breaks", want.end)
		}
	}
	if f, err := h.b.Recv(); err != nil || f.Step != 0 {
		t.Fatalf("recv after the breaks: %v, %v", f, err)
	}
	for end, ch := range absorbed {
		if len(ch) > 0 {
			t.Fatalf("%s absorbed more faults than the two breaks", end)
		}
	}
}

// TestResumableDialerBudgetExhausted: when every redial fails, both ends
// turn terminal with ErrLinkDown at exactly the budget on their clock —
// the dialer after redials at 0, 10, 30 and 70 ms (its backoff clipped to
// the deadline) fails the last at 80, and the acceptor's deadline fires at
// 80 — and not an instant before.
func TestResumableDialerBudgetExhausted(t *testing.T) {
	const budget = 80 * time.Millisecond
	h := newResumableHarness(t, budget, ResumableOptions{Name: "a"}, ResumableOptions{Name: "b"})
	h.lis.Close() // all redials now fail
	errs := map[*Resumable]chan error{h.a: make(chan error, 1), h.b: make(chan error, 1)}
	for r, ch := range errs {
		go func() {
			_, err := r.Recv()
			ch <- err
		}()
	}
	breakLink(t, h.a)
	for _, step := range []time.Duration{10, 20, 40, 10} {
		// Armed: the acceptor's deadline and the dialer's next backoff.
		h.clock.WaitArmed(t, 2)
		for r, ch := range errs {
			select {
			case err := <-ch:
				t.Fatalf("%s ended at %v, before the %v budget: %v", r.name, time.Duration(h.clock.Now()), budget, err)
			default:
			}
		}
		h.clock.Advance(step * time.Millisecond)
	}
	for r, ch := range errs {
		if err := testutil.Await(t, ch, r.name+"'s Recv at the budget"); !errors.Is(err, ErrLinkDown) {
			t.Fatalf("%s Recv: got %v, want ErrLinkDown", r.name, err)
		}
	}
	if now := time.Duration(h.clock.Now()); now != budget {
		t.Fatalf("the link died at %v, want exactly the budget %v", now, budget)
	}
	if err := h.a.Send(seqFrame(0)); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("post-terminal Send: got %v, want ErrLinkDown", err)
	}
}

// TestResumableReadsPastAFailedWrite: a write that fails because the peer
// closed does not take the link down while the connection still holds
// what the peer sent before closing. A worker session whose ack or beacon
// hits the coordinator's close after the run's Drain still reads that
// Drain, instead of waiting out its budget for an adoption that never
// comes. The clock never moves, so a link that waited would never return.
func TestResumableReadsPastAFailedWrite(t *testing.T) {
	h := newResumableHarness(t, time.Second, ResumableOptions{Name: "a"}, ResumableOptions{Name: "b"})
	h.a.Retire()
	if err := h.a.Send(seqFrame(0)); err != nil {
		t.Fatalf("send: %v", err)
	}
	h.a.Close()
	if err := h.b.Send(seqFrame(1)); err != nil {
		t.Fatalf("a send to a closed peer failed the stream: %v", err)
	}
	got := make(chan *wire.Frame, 1)
	go func() {
		f, _ := h.b.Recv()
		got <- f
	}()
	if f := testutil.Await(t, got, "frame for b after its failed write (it waits for an adoption?)"); f == nil || f.Step != 0 {
		t.Fatalf("after its failed write b received %v, want the frame a sent before closing", f)
	}
}

// TestResumableReconnecting: the down state is visible while absorption
// is in progress, and clears after adoption.
func TestResumableReconnecting(t *testing.T) {
	h := newResumableHarness(t, 5*time.Second, ResumableOptions{Name: "a"}, ResumableOptions{Name: "b"})
	if h.a.Reconnecting() {
		t.Fatal("fresh link reports reconnecting")
	}
	if err := h.a.Send(seqFrame(0)); err != nil {
		t.Fatalf("send: %v", err)
	}
	if f, err := h.b.Recv(); err != nil || f.Step != 0 {
		t.Fatalf("recv: %v, %v", f, err)
	}
	go h.a.Recv() // a's reader notices the break; no frame comes back
	breakLink(t, h.a)
	// The link heals on its own; once it does, the flag clears.
	for _, r := range []*Resumable{h.a, h.b} {
		waitLink(t, r, r.name+" to heal", func() bool { return r.conn != nil || r.err != nil })
		if r.Reconnecting() {
			t.Fatalf("%s reports reconnecting after healing", r.name)
		}
	}
	if err := h.a.Send(seqFrame(1)); err != nil {
		t.Fatalf("post-heal send: %v", err)
	}
	if f, err := h.b.Recv(); err != nil || f.Step != 1 {
		t.Fatalf("post-heal recv: %v, %v", f, err)
	}
}

// TestResumableRetire: after Retire a peer close is a plain terminal
// error, immediately — no reconnect, no ErrLinkDown, no budget wait (the
// clock never moves).
func TestResumableRetire(t *testing.T) {
	h := newResumableHarness(t, 10*time.Second, ResumableOptions{Name: "a"}, ResumableOptions{Name: "b"})
	h.b.Retire()
	h.a.Close() // deliberate teardown: b sees EOF
	recvd := make(chan error, 1)
	go func() {
		_, err := h.b.Recv()
		recvd <- err
	}()
	err := testutil.Await(t, recvd, "retired Recv's return")
	if err == nil || errors.Is(err, ErrLinkDown) {
		t.Fatalf("retired Recv: got %v, want a plain terminal error", err)
	}
	if !errors.Is(err, io.EOF) && !errors.Is(err, ErrClosed) {
		t.Fatalf("retired Recv: got %v, want the peer-close error", err)
	}
}

// TestResumableAcksBoundReplay: the receiver acks every ackEvery frames,
// and the sender, reading those acks, trims its replay buffer to the
// unacked tail, so the buffer of a long-lived link stays bounded and a
// break late in the stream replays only that tail.
func TestResumableAcksBoundReplay(t *testing.T) {
	var replayed atomic.Int64
	h := newResumableHarness(t, 5*time.Second,
		ResumableOptions{Name: "a", OnAbsorb: func(n int) { replayed.Add(int64(n)) }}, ResumableOptions{Name: "b"})
	// The sender reads: its Recv consumes the acks (no application frame
	// comes back) and returns when the harness closes the link.
	go h.a.Recv()
	const n = 40
	for i := 0; i < n; i++ {
		if err := h.a.Send(seqFrame(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if f, err := h.b.Recv(); err != nil || int(f.Step) != i {
			t.Fatalf("recv %d: %v, %v", i, f, err)
		}
	}
	waitLink(t, h.a, fmt.Sprintf("the sender's unacked buffer to shrink to ackEvery (%d) frames", ackEvery),
		func() bool { return len(h.a.buf) <= ackEvery })
	breakLink(t, h.a)
	if err := h.a.Send(seqFrame(n)); err != nil {
		t.Fatalf("post-break send: %v", err)
	}
	if f, err := h.b.Recv(); err != nil || int(f.Step) != n {
		t.Fatalf("post-break recv: %v, %v", f, err)
	}
	if r := replayed.Load(); r > ackEvery+1 {
		t.Fatalf("replayed %d frames; acks should have trimmed the buffer (want <= %d)", r, ackEvery+1)
	}
}

// TestWarmAckRoundTripAllocatesNothing: once warm, a round of ackEvery
// frames over a resumable loopback link — sent and buffered, received,
// acknowledged in a pooled LinkAck, and trimmed from the sender's buffer
// by the ack — allocates nothing.
func TestWarmAckRoundTripAllocatesNothing(t *testing.T) {
	// A blocked goroutine waits in a record the runtime caches per
	// processor, and drops with the processor when GOMAXPROCS shrinks
	// (AllocsPerRun sets it to 1) or a collection runs; the warm-up runs
	// where the measurement does.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	h := newResumableHarness(t, 5*time.Second, ResumableOptions{Name: "a"}, ResumableOptions{Name: "b"})
	go h.a.Recv() // consumes the acks; returns when the harness closes the link
	sent := 0
	round := func() {
		for range ackEvery {
			if err := h.a.Send(seqFrame(sent)); err != nil {
				t.Fatalf("send %d: %v", sent, err)
			}
			f, err := h.b.Recv()
			if err != nil || int(f.Step) != sent {
				t.Fatalf("recv %d: %v, %v", sent, f, err)
			}
			f.Release()
			sent++
		}
		for {
			h.a.mu.Lock()
			unacked := len(h.a.buf)
			h.a.mu.Unlock()
			if unacked == 0 {
				return
			}
			runtime.Gosched()
		}
	}
	for range 4 {
		round()
	}
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Errorf("a warm round of %d frames and their ack allocates %v times", ackEvery, n)
	}
}
