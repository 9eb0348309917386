package transport

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"pipebd/internal/cluster/wire"
)

// ErrChaos is wrapped by every failure the Chaos network injects, so
// tests and recovery code can tell an injected fault from a real one.
var ErrChaos = errors.New("transport: chaos fault injected")

// Op selects which direction of a connection a chaos trigger watches.
type Op uint8

const (
	// OpSend matches frames written by the wrapped (dialing) side.
	OpSend Op = iota
	// OpRecv matches frames read by the wrapped (dialing) side.
	OpRecv
)

func (o Op) String() string {
	if o == OpSend {
		return "send"
	}
	return "recv"
}

// Action is what a fault does once its trigger fires.
type Action uint8

const (
	// ActKill closes the connection abruptly; the matched operation (and
	// every later one) fails, and the peer observes a broken stream. A
	// matched Recv drops the received frame, modeling a crash before
	// delivery; its end sees the break first: the peer's stream breaks
	// once this end closes the connection or operates on it again.
	ActKill Action = iota
	// ActDelay waits Fault.Delay on the network's clock before letting
	// the operation proceed — pure latency, no data loss. With a
	// Fault.Window every later frame crossing the connection within the
	// window waits Delay too: a congestion burst, not one slow frame.
	ActDelay
	// ActTruncate (send only) delivers a frame whose payload was cut in
	// half — the peer decodes a structurally broken message — and then
	// kills the connection, modeling a crash mid-write.
	ActTruncate
	// ActFlap closes the connection exactly like ActKill but models a
	// transient link fault rather than a process crash: redialing the
	// same address succeeds immediately, so a resumable link absorbs the
	// flap by reconnect-and-replay.
	ActFlap
	// ActPartition closes the connection and blackholes its dialed
	// address for Fault.Delay: every Chaos.Dial of that address fails
	// until the partition heals (Delay <= 0 never heals). Models a
	// healing — or persistent — network partition in front of a
	// reconnecting link.
	ActPartition
)

func (a Action) String() string {
	return [...]string{"kill", "delay", "truncate", "flap", "partition"}[a]
}

// AnyStep is the Trigger.Step wildcard. (wire.NoStep is a real step value
// carried by control frames, so the wildcard must be distinct from it.)
const AnyStep int32 = -1 << 30

// AnyConn is the Trigger.Conn wildcard: the fault arms on every dialed
// connection and fires on the first match anywhere. Peer-mesh tests need
// it — worker-to-worker dial order is scheduling-dependent, so a fault
// aimed at "the first ring segment of step S" cannot name a connection
// index.
const AnyConn = -1

// Trigger selects the frame a fault fires on. A frame matches when it
// crosses the Conn-th dialed connection (or any connection, for AnyConn)
// in direction Op with the given Kind and Step; Count picks the Nth match
// (1-based, <= 1 meaning the first). Kind 0 and Step AnyStep are
// wildcards. Counts are global across connections for AnyConn faults.
//
// Because triggers key on protocol content (kind + step) rather than
// wall-clock time, a schedule is reproducible: the same seed or literal
// schedule injects the same fault at the same protocol position on every
// run, regardless of machine speed.
type Trigger struct {
	Conn  int
	Op    Op
	Kind  wire.Kind
	Step  int32
	Count int
}

// Fault is one scheduled injection.
type Fault struct {
	Trigger
	Action Action
	// Delay is the wait of ActDelay and the partition duration of
	// ActPartition (<= 0 partitions forever). Delays and windows run on
	// the wrapped network's clock.
	Delay time.Duration
	// Window is how long after it fires an ActDelay delays every frame.
	Window time.Duration
	// Repeat re-arms the fault after it fires, so it injects on every
	// matching frame from the Count-th on — a persistent perturbation
	// (e.g. a permanently slow link) rather than a one-shot event. Only
	// meaningful for ActDelay; a repeated kill is still terminal.
	Repeat bool
}

func (f Fault) String() string {
	kind := "any-kind"
	if f.Kind != 0 {
		kind = f.Kind.String()
	}
	step := "any-step"
	if f.Step != AnyStep {
		step = fmt.Sprintf("step %d", f.Step)
	}
	conn := fmt.Sprintf("conn %d", f.Conn)
	if f.Conn == AnyConn {
		conn = "any-conn"
	}
	return fmt.Sprintf("%v %s on %v of %s %s", f.Action, conn, f.Op, kind, step)
}

// Chaos wraps a Network and injects a deterministic schedule of faults
// into the connections it Dials (listeners pass through untouched, so
// workers can share the inner network). It is both the recovery driver in
// production-shaped tests — kill a worker's connection mid-run, assert
// the run still finishes bit-identically — and a reusable scenario
// generator via RandomKills.
type Chaos struct {
	inner Network
	// Logf, when set, receives one line per injected fault.
	Logf func(format string, args ...any)

	mu     sync.Mutex
	faults []*chaosFault
	dials  int
	// heal maps blackholed addresses (ActPartition) to the instant dialing
	// them works again; a partition that never heals maps to MaxInt64.
	heal map[string]int64
}

type chaosFault struct {
	Fault
	matches int
	fired   bool
}

// NewChaos wraps inner with the given fault schedule.
func NewChaos(inner Network, schedule ...Fault) *Chaos {
	c := &Chaos{inner: inner, heal: make(map[string]int64)}
	for _, f := range schedule {
		c.faults = append(c.faults, &chaosFault{Fault: f})
	}
	return c
}

// RandomFlaps derives n transient link-flap faults from a seed, shaped
// like RandomKills. Under a resumable link every flap should be absorbed —
// reconnected and replayed — without consuming any restart budget.
func RandomFlaps(seed int64, conns, steps, n int) []Fault {
	return randomFaults(seed, conns, steps, n, ActFlap)
}

// RandomKills derives n kill faults from a seed: each closes a random
// dialed connection (of the first conns) on receipt of a loss report for
// a random step in [0, steps). Loss frames flow from every device on
// every step, so a kill always lands mid-run — after join, before drain —
// which is the window recovery must handle.
func RandomKills(seed int64, conns, steps, n int) []Fault {
	return randomFaults(seed, conns, steps, n, ActKill)
}

func randomFaults(seed int64, conns, steps, n int, act Action) []Fault {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Fault, n)
	for i := range out {
		out[i] = Fault{
			Trigger: Trigger{Conn: rng.Intn(conns), Op: OpRecv,
				Kind: wire.KindLosses, Step: rng.Int31n(int32(steps)), Count: 1},
			Action: act,
		}
	}
	return out
}

func (c *Chaos) clock() Clock { return ClockOf(c.inner) }

// Listen passes through to the wrapped network.
func (c *Chaos) Listen(addr string) (Listener, error) { return c.inner.Listen(addr) }

// Dial connects through the wrapped network and arms the faults scheduled
// for this connection (by dial order, 0-based). Dialing an address inside
// an unhealed partition fails with ErrChaos.
func (c *Chaos) Dial(addr string) (Conn, error) {
	c.mu.Lock()
	if until, ok := c.heal[addr]; ok {
		if c.clock().Now() < until {
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: address %s partitioned", ErrChaos, addr)
		}
		delete(c.heal, addr) // healed
	}
	c.mu.Unlock()
	conn, err := c.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	idx := c.dials
	c.dials++
	var armed []*chaosFault
	for _, f := range c.faults {
		if f.Conn == idx || f.Conn == AnyConn {
			armed = append(armed, f)
		}
	}
	c.mu.Unlock()
	return &chaosConn{inner: conn, chaos: c, addr: addr, faults: armed}, nil
}

// Unfired returns the scheduled faults that have not fired (yet): a
// fault aimed at a connection that was never dialed, or whose trigger
// never matched. Self-tests should fail when a schedule did not fully
// fire — otherwise a mis-aimed kill silently degrades a chaos run into a
// fault-free one.
func (c *Chaos) Unfired() []Fault {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Fault
	for _, f := range c.faults {
		if !f.fired {
			out = append(out, f.Fault)
		}
	}
	return out
}

func (c *Chaos) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

type chaosConn struct {
	inner  Conn
	chaos  *Chaos
	addr   string
	mu     sync.Mutex
	faults []*chaosFault
	killed bool
	// Open delay window: frames crossing before delayUntil (an instant on
	// the clock; 0 when none opened) wait delay each.
	delayUntil int64
	delay      time.Duration
}

// cross runs a frame crossing in direction op through the schedule: it
// waits out a delay on the clock and returns the fault that ends the
// connection, if one fired.
func (cc *chaosConn) cross(op Op, f *wire.Frame) *chaosFault {
	fl, wait := cc.match(op, f)
	if fl != nil {
		cc.chaos.logf("chaos: %v fired on %v frame (dev %d step %d)", fl.Fault, f.Kind, f.Dev, f.Step)
	}
	if wait > 0 {
		Sleep(cc.chaos.clock(), wait, nil)
	}
	if fl == nil || fl.Action == ActDelay {
		return nil
	}
	return fl
}

// match returns the armed fault (if any) fired by a frame crossing in
// direction op, advancing per-fault match counts, and what the frame
// waits: a fired delay's, or an open delay window's. It applies what a
// fault does to the connection: an ended connection, a delay's window, a
// partition's blackhole for Dial to honor. Fault state lives under the
// Chaos-wide mutex, not the per-connection one: an AnyConn fault is
// shared by every dialed connection, and frames of the same kind and step
// can cross several of them concurrently (ring segments fan out), so
// firing must be serialized globally or one fault could kill two
// connections.
func (cc *chaosConn) match(op Op, f *wire.Frame) (*chaosFault, time.Duration) {
	if cc.dead() {
		return nil, 0
	}
	now := cc.chaos.clock().Now()
	cc.chaos.mu.Lock()
	defer cc.chaos.mu.Unlock()
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for _, fl := range cc.faults {
		if (fl.fired && !fl.Repeat) || fl.Op != op {
			continue
		}
		if fl.Kind != 0 && fl.Kind != f.Kind {
			continue
		}
		if fl.Step != AnyStep && fl.Step != f.Step {
			continue
		}
		fl.matches++
		if fl.matches < max(fl.Count, 1) {
			continue
		}
		fl.fired = true
		switch fl.Action {
		case ActDelay:
			cc.delayUntil, cc.delay = now+int64(fl.Window), fl.Delay
			return fl, fl.Delay
		case ActPartition:
			cc.chaos.heal[cc.addr] = math.MaxInt64
			if fl.Delay > 0 {
				cc.chaos.heal[cc.addr] = now + int64(fl.Delay)
			}
		}
		cc.killed = true
		return fl, 0
	}
	if now < cc.delayUntil {
		return nil, cc.delay
	}
	return nil, 0
}

func (cc *chaosConn) dead() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.killed
}

// Send writes f unless a fault ends the connection first: a kill, flap or
// partition loses the frame, a truncation delivers half its payload — the
// peer decodes a structurally broken message. A frame a fault catches
// keeps the caller's reference for good: it is garbage, never recycled
// under the half a truncation still delivers.
func (cc *chaosConn) Send(f *wire.Frame) error {
	if cc.dead() {
		cc.inner.Close()
		return fmt.Errorf("%w: connection killed", ErrChaos)
	}
	fl := cc.cross(OpSend, f)
	if fl == nil {
		return cc.inner.Send(f)
	}
	if fl.Action == ActTruncate {
		_ = cc.inner.Send(&wire.Frame{Kind: f.Kind, Dev: f.Dev, Step: f.Step, Payload: f.Payload[:len(f.Payload)/2]})
	}
	cc.inner.Close()
	return fmt.Errorf("%w: %v on send", ErrChaos, fl.Action)
}

// Recv reads the next frame unless a fault ends the connection on it: the
// frame is then dropped with the connection, as if the peer crashed before
// it was delivered, and a resumable link must get it back by replay. (A
// truncation, meaningless on receipt, acts as a kill.) The connection
// closes at this end's next operation or Close, not here: whoever reads
// it learns of the fault before the peer does, so a coordinator whose
// read was killed sees that loss before any session it cascades into.
func (cc *chaosConn) Recv() (*wire.Frame, error) {
	if cc.dead() {
		cc.inner.Close()
		return nil, fmt.Errorf("%w: connection killed", ErrChaos)
	}
	f, err := cc.inner.Recv()
	if err != nil {
		return nil, err
	}
	if fl := cc.cross(OpRecv, f); fl != nil {
		return nil, fmt.Errorf("%w: %v on recv", ErrChaos, fl.Action)
	}
	return f, nil
}

func (cc *chaosConn) Close() error { return cc.inner.Close() }

var (
	_ Network = (*Chaos)(nil)
	_ Conn    = (*chaosConn)(nil)
)
