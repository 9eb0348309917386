package transport

import (
	"errors"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"pipebd/internal/cluster/wire"
	"pipebd/internal/tensor"
	"pipebd/internal/testutil"
)

// manualLoopback returns a loopback network on a manual clock: Chaos's
// delays and windows over it move only when a test advances the clock.
func manualLoopback() (*Loopback, *testutil.ManualClock) {
	net, clock := NewLoopback(), &testutil.ManualClock{}
	net.Clock = clock
	return net, clock
}

// chaosPair dials through a Chaos wrapper over a manual-clock loopback
// and returns both ends and the clock; the listener closes at cleanup.
func chaosPair(t *testing.T, faults ...Fault) (client, server Conn, clock *testutil.ManualClock) {
	t.Helper()
	inner, clock := manualLoopback()
	lis, err := inner.Listen("")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { lis.Close() })
	accepted := make(chan Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		accepted <- c
	}()
	c, err := NewChaos(inner, faults...).Dial(lis.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	return c, <-accepted, clock
}

// TestChaosKillOnSend: the fated frame is lost, the op errors with
// ErrChaos, and the peer observes a broken stream. Frames before the
// trigger pass untouched.
func TestChaosKillOnSend(t *testing.T) {
	client, server, _ := chaosPair(t, Fault{
		Trigger: Trigger{Conn: 0, Op: OpSend, Kind: wire.KindLosses, Step: 2, Count: 1},
		Action:  ActKill,
	})
	for s := int32(0); s < 2; s++ {
		if err := client.Send(wire.EncodeLosses(0, s, []float64{1})); err != nil {
			t.Fatalf("pre-fault send %d: %v", s, err)
		}
	}
	// A different kind at the fated step passes: triggers match on content.
	if err := client.Send(wire.Control(wire.KindStepDone, 0, 2)); err != nil {
		t.Fatalf("non-matching kind was faulted: %v", err)
	}
	err := client.Send(wire.EncodeLosses(0, 2, []float64{1}))
	if !errors.Is(err, ErrChaos) {
		t.Fatalf("fated send: got %v, want ErrChaos", err)
	}
	// Later ops fail too.
	if err := client.Send(wire.Control(wire.KindDone, 0, 3)); !errors.Is(err, ErrChaos) {
		t.Fatalf("post-kill send: got %v, want ErrChaos", err)
	}
	// The peer drains the 3 delivered frames, then hits EOF — the fated
	// frame never crossed.
	for i := 0; i < 3; i++ {
		if _, err := server.Recv(); err != nil {
			t.Fatalf("peer drain %d: %v", i, err)
		}
	}
	if _, err := server.Recv(); err != io.EOF {
		t.Fatalf("peer after kill: got %v, want io.EOF", err)
	}
}

// TestChaosKillOnRecv: the frame that would have been delivered is
// dropped and the reader sees ErrChaos. The reader learns of the kill
// first: the peer's stream breaks once this end operates on the
// connection again.
func TestChaosKillOnRecv(t *testing.T) {
	client, server, _ := chaosPair(t, Fault{
		Trigger: Trigger{Conn: 0, Op: OpRecv, Kind: wire.KindStepGo, Step: AnyStep, Count: 2},
		Action:  ActKill,
	})
	for s := int32(0); s < 3; s++ {
		if err := server.Send(wire.Control(wire.KindStepGo, 0, s)); err != nil {
			t.Fatalf("server send %d: %v", s, err)
		}
	}
	if f, err := client.Recv(); err != nil || f.Step != 0 {
		t.Fatalf("first recv: %+v, %v", f, err)
	}
	if _, err := client.Recv(); !errors.Is(err, ErrChaos) {
		t.Fatalf("second recv: got %v, want ErrChaos", err)
	}
	if err := server.Send(wire.Control(wire.KindStepGo, 0, 3)); err != nil {
		t.Fatalf("peer send before the killed end reacted: %v", err)
	}
	if _, err := client.Recv(); !errors.Is(err, ErrChaos) {
		t.Fatalf("post-kill recv: got %v, want ErrChaos", err)
	}
	if _, err := server.Recv(); err != io.EOF {
		t.Fatalf("peer after the killed end's next op: got %v, want io.EOF", err)
	}
}

// TestChaosDelay: ActDelay injects latency but loses nothing: the send
// returns exactly when the delay has passed on the network's clock.
func TestChaosDelay(t *testing.T) {
	client, server, clock := chaosPair(t, Fault{
		Trigger: Trigger{Conn: 0, Op: OpSend, Kind: wire.KindOutput, Step: AnyStep, Count: 1},
		Action:  ActDelay, Delay: 30 * time.Millisecond,
	})
	sent := make(chan error, 1)
	go func() { sent <- client.Send(wire.EncodeTensor(wire.KindOutput, 0, 0, tensor.Ones(2, 2))) }()
	clock.WaitArmed(t, 1)
	clock.Advance(30*time.Millisecond - 1)
	select {
	case err := <-sent:
		t.Fatalf("send returned a nanosecond before its 30ms delay: %v", err)
	default:
	}
	clock.Advance(1)
	if err := testutil.Await(t, sent, "return of the delayed send"); err != nil {
		t.Fatalf("delayed send: %v", err)
	}
	if f, err := server.Recv(); err != nil || f.Kind != wire.KindOutput {
		t.Fatalf("delayed frame lost: %+v, %v", f, err)
	}
}

// TestChaosTruncate: the peer receives a structurally broken frame (the
// payload no longer decodes) and the sender's connection dies — a crash
// mid-write.
func TestChaosTruncate(t *testing.T) {
	client, server, _ := chaosPair(t, Fault{
		Trigger: Trigger{Conn: 0, Op: OpSend, Kind: wire.KindOutput, Step: AnyStep, Count: 1},
		Action:  ActTruncate,
	})
	err := client.Send(wire.EncodeTensor(wire.KindOutput, 0, 0, tensor.Ones(4, 4)))
	if !errors.Is(err, ErrChaos) {
		t.Fatalf("truncated send: got %v, want ErrChaos", err)
	}
	f, err := server.Recv()
	if err != nil {
		t.Fatalf("peer should receive the mangled frame: %v", err)
	}
	if _, err := wire.DecodeTensor(f); err == nil {
		t.Fatal("mangled payload decoded successfully")
	}
	if _, err := server.Recv(); err != io.EOF {
		t.Fatalf("peer after truncate: got %v, want io.EOF", err)
	}
}

// TestChaosConnSelection: faults arm by dial order; other connections are
// untouched.
func TestChaosConnSelection(t *testing.T) {
	inner := NewLoopback()
	lis, err := inner.Listen("")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer lis.Close()
	var mu sync.Mutex
	var servers []Conn
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			servers = append(servers, c)
			mu.Unlock()
		}
	}()
	net := NewChaos(inner, Fault{
		Trigger: Trigger{Conn: 1, Op: OpSend, Step: AnyStep, Count: 1},
		Action:  ActKill,
	})
	c0, err := net.Dial(lis.Addr())
	if err != nil {
		t.Fatalf("dial 0: %v", err)
	}
	c1, err := net.Dial(lis.Addr())
	if err != nil {
		t.Fatalf("dial 1: %v", err)
	}
	if err := c0.Send(wire.Control(wire.KindHello, wire.NoDev, wire.NoStep)); err != nil {
		t.Fatalf("conn 0 was faulted: %v", err)
	}
	if err := c1.Send(wire.Control(wire.KindHello, wire.NoDev, wire.NoStep)); !errors.Is(err, ErrChaos) {
		t.Fatalf("conn 1 send: got %v, want ErrChaos", err)
	}
	c0.Close()
	c1.Close()
}

// TestChaosUnfired: faults that never matched — aimed at a connection
// that was never dialed, or at content that never crossed — are
// reported, so a chaos self-test can detect that it tested nothing.
func TestChaosUnfired(t *testing.T) {
	fired := Fault{Trigger: Trigger{Conn: 0, Op: OpSend, Kind: wire.KindHello, Step: wire.NoStep, Count: 1}, Action: ActKill}
	neverDialed := Fault{Trigger: Trigger{Conn: 5, Op: OpSend, Step: AnyStep, Count: 1}, Action: ActKill}
	inner := NewLoopback()
	lis, err := inner.Listen("")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer lis.Close()
	go func() {
		if c, err := lis.Accept(); err == nil {
			defer c.Close()
			c.Recv()
		}
	}()
	net := NewChaos(inner, fired, neverDialed)
	if got := len(net.Unfired()); got != 2 {
		t.Fatalf("before any traffic: %d unfired, want 2", got)
	}
	conn, err := net.Dial(lis.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if err := conn.Send(wire.Control(wire.KindHello, wire.NoDev, wire.NoStep)); !errors.Is(err, ErrChaos) {
		t.Fatalf("armed kill did not fire: %v", err)
	}
	un := net.Unfired()
	if len(un) != 1 || un[0].Conn != 5 {
		t.Fatalf("after firing: unfired = %v, want only the conn-5 fault", un)
	}
}

// TestRandomKillsDeterministic: the generator is a pure function of its
// seed, and every fault it emits is a mid-run kill.
func TestRandomKillsDeterministic(t *testing.T) {
	a := RandomKills(7, 2, 6, 3)
	b := RandomKills(7, 2, 6, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	c := RandomKills(8, 2, 6, 3)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	for _, f := range a {
		if f.Action != ActKill || f.Kind != wire.KindLosses || f.Op != OpRecv {
			t.Fatalf("unexpected fault shape: %+v", f)
		}
		if f.Conn < 0 || f.Conn >= 2 || f.Step < 0 || f.Step >= 6 {
			t.Fatalf("fault outside run bounds: %+v", f)
		}
	}
}

// TestChaosFlapAllowsRedial: a flap kills the connection like a kill,
// but dialing the same address again succeeds immediately — the fault a
// resumable link absorbs by reconnect-and-replay.
func TestChaosFlapAllowsRedial(t *testing.T) {
	inner := NewLoopback()
	lis, err := inner.Listen("")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer lis.Close()
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go func(c Conn) {
				for {
					if _, err := c.Recv(); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	net := NewChaos(inner, Fault{
		Trigger: Trigger{Conn: 0, Op: OpSend, Kind: wire.KindLosses, Step: 1, Count: 1},
		Action:  ActFlap,
	})
	conn, err := net.Dial(lis.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := conn.Send(wire.EncodeLosses(0, 0, []float64{1})); err != nil {
		t.Fatalf("pre-flap send: %v", err)
	}
	if err := conn.Send(wire.EncodeLosses(0, 1, []float64{1})); !errors.Is(err, ErrChaos) {
		t.Fatalf("flap send: got %v, want ErrChaos", err)
	}
	redialed, err := net.Dial(lis.Addr())
	if err != nil {
		t.Fatalf("redial after flap: %v", err)
	}
	defer redialed.Close()
	if err := redialed.Send(wire.EncodeLosses(0, 1, []float64{1})); err != nil {
		t.Fatalf("send on redialed conn: %v", err)
	}
	if n := len(net.Unfired()); n != 0 {
		t.Fatalf("%d faults unfired; the flap did not re-arm on the new conn, as intended", n)
	}
}

// TestChaosPartitionHeals: a partition kills the connection AND
// blackholes the address for the fault's duration; dialing fails until
// the partition heals, at exactly its Delay on the clock, then succeeds.
func TestChaosPartitionHeals(t *testing.T) {
	inner, clock := manualLoopback()
	lis, err := inner.Listen("")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer lis.Close()
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go func(c Conn) {
				for {
					if _, err := c.Recv(); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	net := NewChaos(inner, Fault{
		Trigger: Trigger{Conn: 0, Op: OpSend, Kind: wire.KindLosses, Step: 0, Count: 1},
		Action:  ActPartition,
		Delay:   60 * time.Millisecond,
	})
	conn, err := net.Dial(lis.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := conn.Send(wire.EncodeLosses(0, 0, []float64{1})); !errors.Is(err, ErrChaos) {
		t.Fatalf("partition send: got %v, want ErrChaos", err)
	}
	clock.Advance(60*time.Millisecond - 1)
	if _, err := net.Dial(lis.Addr()); !errors.Is(err, ErrChaos) {
		t.Fatalf("dial a nanosecond before the partition heals: got %v, want ErrChaos", err)
	}
	clock.Advance(1)
	healed, err := net.Dial(lis.Addr())
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	healed.Close()
}

// TestChaosPartitionPersistent: Delay <= 0 never heals — the degrade
// tier's scenario.
func TestChaosPartitionPersistent(t *testing.T) {
	inner, clock := manualLoopback()
	lis, err := inner.Listen("")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer lis.Close()
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	net := NewChaos(inner, Fault{
		Trigger: Trigger{Conn: 0, Op: OpSend, Step: AnyStep, Count: 1},
		Action:  ActPartition,
	})
	conn, err := net.Dial(lis.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := conn.Send(wire.Control(wire.KindHello, wire.NoDev, wire.NoStep)); !errors.Is(err, ErrChaos) {
		t.Fatalf("partition send: got %v, want ErrChaos", err)
	}
	clock.Advance(1000 * time.Hour)
	if _, err := net.Dial(lis.Addr()); !errors.Is(err, ErrChaos) {
		t.Fatalf("dial into persistent partition: got %v, want ErrChaos", err)
	}
}

// TestChaosSpikeWindow: a delay with a window is a latency spike: the
// matched frame and everything after it inside the window wait the delay
// each, on the clock; a frame at the window's end passes at once.
func TestChaosSpikeWindow(t *testing.T) {
	const delay, window = 15 * time.Millisecond, 200 * time.Millisecond
	client, server, clock := chaosPair(t, Fault{
		Trigger: Trigger{Conn: 0, Op: OpSend, Kind: wire.KindLosses, Step: 0, Count: 1},
		Action:  ActDelay, Delay: delay, Window: window,
	})
	defer client.Close()
	defer server.Close()
	sent := make(chan error)
	go func() {
		for s := int32(0); s < 3; s++ {
			sent <- client.Send(wire.EncodeLosses(0, s, []float64{1}))
		}
	}()
	for s := 1; s <= 3; s++ {
		clock.WaitArmed(t, 1)
		clock.Advance(delay)
		if err := testutil.Await(t, sent, "return of a send in the spike"); err != nil {
			t.Fatalf("send %d: %v", s, err)
		}
		if f, err := server.Recv(); err != nil || int(f.Step) != s-1 {
			t.Fatalf("recv %d: %v, %v", s, f, err)
		}
	}
	clock.Advance(window - 3*delay)
	if err := client.Send(wire.EncodeLosses(0, 3, []float64{1})); err != nil {
		t.Fatalf("send after the window: %v", err)
	}
	if f, err := server.Recv(); err != nil || f.Step != 3 || time.Duration(clock.Now()) != window {
		t.Fatalf("recv after the window: %v, %v at %v, want step 3 at %v", f, err, time.Duration(clock.Now()), window)
	}
}

// TestRandomFlapsDeterministic: the flap generator is seed-pure and
// every fault is a mid-run flap.
func TestRandomFlapsDeterministic(t *testing.T) {
	a := RandomFlaps(7, 2, 6, 3)
	b := RandomFlaps(7, 2, 6, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	for _, f := range a {
		if f.Action != ActFlap || f.Kind != wire.KindLosses || f.Op != OpRecv {
			t.Fatalf("unexpected fault shape: %+v", f)
		}
	}
}
