package transport

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipebd/internal/cluster/wire"
)

// resumableHarness wires two Resumables over a loopback listener the way
// the cluster does: the dialer side owns redial with a resume PeerHello
// (here the coordinator's, From NoDev), the acceptor side adopts redialed
// connections and echoes the hello with its own receive count.
type resumableHarness struct {
	a, b *Resumable // a dials, b accepts
	lis  Listener
}

func newResumableHarness(t *testing.T, policy RetryPolicy, aOpts, bOpts ResumableOptions) *resumableHarness {
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

	h := &resumableHarness{lis: lis}
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

// breakLink closes the current underlying connection of r, simulating a
// transport fault; both sides observe a broken stream.
func breakLink(t *testing.T, r *Resumable) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.mu.Lock()
		c := r.conn
		r.mu.Unlock()
		if c != nil {
			c.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("breakLink: link never came back up")
		}
		time.Sleep(time.Millisecond)
	}
}

func seqFrame(i int) *wire.Frame {
	return wire.EncodeLosses(0, int32(i), []float64{float64(i)})
}

// TestResumableReplaysThroughBreaks: a bidirectional stream survives
// repeated connection loss bit-identically — every frame arrives exactly
// once, in order, on both sides.
func TestResumableReplaysThroughBreaks(t *testing.T) {
	var absorbs atomic.Int64
	h := newResumableHarness(t,
		RetryPolicy{Backoff: 2 * time.Millisecond, Budget: 5 * time.Second, AckEvery: 4},
		ResumableOptions{Name: "a", OnAbsorb: func(int) { absorbs.Add(1) }},
		ResumableOptions{Name: "b"})

	const n = 60
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	send := func(r *Resumable) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := r.Send(seqFrame(i)); err != nil {
				errs <- fmt.Errorf("send %d: %w", i, err)
				return
			}
			time.Sleep(time.Millisecond / 2)
		}
	}
	recv := func(r *Resumable, label string) {
		defer wg.Done()
		for i := 0; i < n; i++ {
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

	for i := 0; i < 3; i++ {
		time.Sleep(8 * time.Millisecond)
		breakLink(t, h.a)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if absorbs.Load() == 0 {
		t.Error("no fault was absorbed despite forced breaks")
	}
}

// TestResumableDialerBudgetExhausted: when every redial fails, the
// dialer side turns terminal with ErrLinkDown within the budget, and
// the un-adopted acceptor side does the same.
func TestResumableDialerBudgetExhausted(t *testing.T) {
	h := newResumableHarness(t,
		RetryPolicy{Backoff: 2 * time.Millisecond, Budget: 80 * time.Millisecond, AckEvery: 4},
		ResumableOptions{Name: "a"}, ResumableOptions{Name: "b"})
	h.lis.Close() // all redials now fail
	breakLink(t, h.a)

	start := time.Now()
	if _, err := h.a.Recv(); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("dialer Recv: got %v, want ErrLinkDown", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("terminal error took %v", elapsed)
	}
	if err := h.a.Send(seqFrame(0)); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("post-terminal Send: got %v, want ErrLinkDown", err)
	}
	if _, err := h.b.Recv(); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("acceptor Recv: got %v, want ErrLinkDown", err)
	}
}

// TestResumableReconnecting: the down state is visible while absorption
// is in progress, and clears after adoption.
func TestResumableReconnecting(t *testing.T) {
	h := newResumableHarness(t,
		RetryPolicy{Backoff: 2 * time.Millisecond, Budget: 5 * time.Second, AckEvery: 4},
		ResumableOptions{Name: "a"}, ResumableOptions{Name: "b"})
	if h.a.Reconnecting() {
		t.Fatal("fresh link reports reconnecting")
	}
	if err := h.a.Send(seqFrame(0)); err != nil {
		t.Fatalf("send: %v", err)
	}
	if f, err := h.b.Recv(); err != nil || f.Step != 0 {
		t.Fatalf("recv: %v, %v", f, err)
	}
	breakLink(t, h.a)
	// The link heals on its own; once it does, the flag clears.
	deadline := time.Now().Add(5 * time.Second)
	for h.a.Reconnecting() || h.b.Reconnecting() {
		if time.Now().After(deadline) {
			t.Fatal("link never healed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := h.a.Send(seqFrame(1)); err != nil {
		t.Fatalf("post-heal send: %v", err)
	}
	if f, err := h.b.Recv(); err != nil || f.Step != 1 {
		t.Fatalf("post-heal recv: %v, %v", f, err)
	}
}

// TestResumableRetire: after Retire a peer close is a plain terminal
// error, immediately — no reconnect, no ErrLinkDown, no budget wait.
func TestResumableRetire(t *testing.T) {
	h := newResumableHarness(t,
		RetryPolicy{Backoff: 2 * time.Millisecond, Budget: 10 * time.Second, AckEvery: 4},
		ResumableOptions{Name: "a"}, ResumableOptions{Name: "b"})
	h.b.Retire()
	start := time.Now()
	h.a.Close() // deliberate teardown: b sees EOF
	_, err := h.b.Recv()
	if err == nil || errors.Is(err, ErrLinkDown) {
		t.Fatalf("retired Recv: got %v, want a plain terminal error", err)
	}
	if !errors.Is(err, io.EOF) && !errors.Is(err, ErrClosed) {
		t.Fatalf("retired Recv: got %v, want the peer-close error", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retired teardown took %v (waited for a budget?)", elapsed)
	}
}

// TestResumableAcksBoundReplay: with acks flowing, a break late in the
// stream replays only the unacked tail, not the whole history.
func TestResumableAcksBoundReplay(t *testing.T) {
	var replayed atomic.Int64
	h := newResumableHarness(t,
		RetryPolicy{Backoff: 2 * time.Millisecond, Budget: 5 * time.Second, AckEvery: 2},
		ResumableOptions{Name: "a", OnAbsorb: func(n int) { replayed.Add(int64(n)) }},
		ResumableOptions{Name: "b"})
	const n = 40
	for i := 0; i < n; i++ {
		if err := h.a.Send(seqFrame(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if f, err := h.b.Recv(); err != nil || int(f.Step) != i {
			t.Fatalf("recv %d: %v, %v", i, f, err)
		}
	}
	// Give the last ack a moment to land, then break and heal.
	time.Sleep(20 * time.Millisecond)
	breakLink(t, h.a)
	if err := h.a.Send(seqFrame(n)); err != nil {
		t.Fatalf("post-break send: %v", err)
	}
	if f, err := h.b.Recv(); err != nil || int(f.Step) != n {
		t.Fatalf("post-break recv: %v, %v", f, err)
	}
	if r := replayed.Load(); r > 8 {
		t.Fatalf("replayed %d frames; acks should have trimmed the buffer (want <= 8)", r)
	}
}
