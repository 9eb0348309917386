package cluster

// The attempt core: every decision one attempt makes, as a pure state
// machine. The shell (coordinator.go) owns the sockets, the goroutines
// and the clock; it stamps each event with its time, feeds the events to
// step one at a time on the driver goroutine, and carries out the effects
// step returns, in order. Nothing here imports a network, a lock or a
// clock, so a test or a fuzzer drives an attempt in virtual time.

import (
	"fmt"
	"time"

	"pipebd/internal/cluster/ledger"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

// heartbeatMisses is how many heartbeat intervals of silence declare a
// worker dead.
const heartbeatMisses = 4

// eventKind says what happened to one of the attempt's sessions.
type eventKind uint8

const (
	evFrame eventKind = iota // a frame arrived; its payload is decoded or held, or err says why not
	evLost                   // the session's connection failed with err
	evTick                   // a heartbeat tick
)

// event is one input of the core. A frame event carries the frame's
// header and the frame itself, whose payload it decoded where the reader
// may decode it; the payload fields its kind has no use for stay zero.
type event struct {
	kind eventKind
	at   int64 // an instant of the run's clock
	sess int
	err  error

	frame     wire.Kind
	dev, step int
	// f is the frame of a frame event, which the event holds until its
	// effects are carried out: a losses report is decoded, and a
	// snapshot's bytes copied, only then. nil for a relay the reader
	// forwarded.
	f      *wire.Frame
	values []*tensor.Tensor // the final value slabs
	spans  wire.SpanBatch
	link   [2]int // a link-down's edge

	reconnecting []bool // evTick: which sessions' links are absorbing a flap
}

// frameEvent makes one inbound frame the event the core handles, holding
// the caller's reference to it, and decodes the payloads the core keeps
// or the reader hands on: a link-down's edge, a span batch, the final
// value slabs. A payload that does not decode becomes the event's err, a
// protocol error.
func frameEvent(sess int, at int64, f *wire.Frame) event {
	ev := event{kind: evFrame, at: at, sess: sess, frame: f.Kind, dev: int(f.Dev), step: int(f.Step), f: f}
	switch f.Kind {
	case wire.KindLinkDown:
		ev.link[0], ev.link[1], ev.err = wire.DecodeLinkDown(f)
	case wire.KindSpans:
		ev.spans, ev.err = wire.DecodeSpans(f)
	case wire.KindFinalParams:
		ev.values, ev.err = wire.DecodeTensors(f)
	}
	return ev
}

// release drops the event's reference to its frame.
func (ev *event) release() {
	if ev.f != nil {
		ev.f.Release()
	}
}

// effectKind is what the shell does for one effect.
type effectKind uint8

const (
	efSend   effectKind = iota // enqueue frame on session sess's control link
	efRecord                   // append rec, which the account has applied, to the ledger
	efClose                    // close session sess: its worker is lost
	efFinish                   // every device is done: return the result
	efFail                     // end the attempt with err
	efEvent                    // report the decision ev (Coordinator.emit)
)

type effect struct {
	kind  effectKind
	sess  int
	frame *wire.Frame
	rec   *ledger.Record
	err   error
	ev    *Event // allocated per decision, which a warm step makes none of
}

// devState is an attempt's session state of one device: where it lives
// in the plan (group gi, rank j), its newest barrier arrival, and whether
// it is done. What
// it has accounted for is the account's (ledger.Account.Marks). Frames
// from one device arrive in step order on a single connection and an
// attempt starts every device just past the cut, so a step at or below a
// mark is a duplicate — a protocol error.
type devState struct {
	gi, j   int
	arrived int
	done    bool
}

// session is the core's view of one worker session: the devices it
// hosts, whether it is still live, and when it was last heard from.
type session struct {
	addr    string
	devices []int
	live    bool
	heard   int64
}

// routes is an attempt's relay table, immutable once the attempt is
// placed, so the readers forward relay envelopes through it without
// entering the core.
type routes struct {
	relayed map[[2]int]bool // both orientations of every relayed edge
	host    []int           // device rank → index of the session hosting it
}

// forward checks a relay envelope session sess sent and returns the
// session its destination lives on. Only the envelope's header and prefix
// are read (wire.RelayPrefix): the sending session must host the inner
// frame's source, and the edge must be one the attempt relays.
func (rt *routes) forward(sess int, addr string, f *wire.Frame) (int, error) {
	kind, dev, err := wire.RelayPrefix(f)
	if err != nil {
		return 0, err
	}
	from, to := int(dev), int(f.Dev)
	if from < 0 || from >= len(rt.host) || rt.host[from] != sess || !rt.relayed[[2]int{from, to}] {
		return 0, fmt.Errorf("cluster: worker %s relayed %v from device %d to device %d, not a relayed edge from a device it hosts",
			addr, kind, from, to)
	}
	return rt.host[to], nil
}

// attemptCore is the state one attempt decides from: the devices'
// barrier arrivals and done marks, the sessions' liveness, and — shared
// with the attempts before and after it — the run's account and the
// repartitioner. Only step changes it.
type attemptCore struct {
	acct      *ledger.Account
	plan      sched.Plan
	steps     int
	workb     *distill.Workbench // receives the group leaders' trained weights
	snapshots bool               // fault tolerance is on: snapshot frames are restart state
	heartbeat time.Duration      // 0 disables silence detection
	rp        *repartitioner     // nil when repartitioning is off
	metrics   *obs.Metrics

	sessions []session
	host     []int      // device rank → session index
	devs     []devState // by device rank
	barrier  map[int]int
	done     int
	over     bool // finished or failed: step emits nothing more
	// out, rec and losses are reused from event to event: the shell
	// carries out an event's effects, the record's append among them,
	// before it hands the core the next event.
	out    []effect
	rec    ledger.Record
	losses []float64
}

// place records the attempt's sessions, heard from at at, and returns
// its route table over the relayed edges.
func (a *attemptCore) place(at int64, sessions []session, relayed [][2]int) *routes {
	a.sessions = sessions
	rt := &routes{relayed: make(map[[2]int]bool, 2*len(relayed)), host: make([]int, len(a.devs))}
	for i := range sessions {
		sessions[i].live, sessions[i].heard = true, at
		for _, d := range sessions[i].devices {
			rt.host[d] = i
		}
	}
	for _, e := range relayed {
		rt.relayed[e], rt.relayed[[2]int{e[1], e[0]}] = true, true
	}
	a.host = rt.host
	return rt
}

// step handles one event and returns what the shell must do about it.
// After the attempt finishes or fails it returns nothing.
func (a *attemptCore) step(ev event) []effect {
	if a.over {
		return nil
	}
	a.out = a.out[:0]
	if err := a.handle(ev); err != nil {
		a.fail(err)
	}
	return a.out
}

func (a *attemptCore) emit(e effect) { a.out = append(a.out, e) }

func (a *attemptCore) fail(err error) {
	a.emit(effect{kind: efFail, err: err})
	a.over = true
}

func (a *attemptCore) handle(ev event) error {
	switch ev.kind {
	case evTick:
		a.tick(ev.at, ev.reconnecting)
		return nil
	case evLost:
		a.lost(ev.sess, ev.err)
		return nil
	}
	s := &a.sessions[ev.sess]
	if !s.live {
		return nil // already declared dead; what its reader still delivers changes nothing
	}
	s.heard = ev.at
	if ev.err != nil {
		return ev.err
	}
	switch ev.frame {
	case wire.KindHello, wire.KindHeartbeat, wire.KindRelay:
		return nil // late hellos are harmless; a relay the reader forwarded only says the session is alive
	case wire.KindLinkDown:
		return a.linkDown(s, ev.link)
	}
	if ev.dev < 0 || ev.dev >= len(a.devs) {
		return fmt.Errorf("cluster: worker %s sent %v for unknown device %d", s.addr, ev.frame, ev.dev)
	}
	dev, step, ds := ev.dev, ev.step, &a.devs[ev.dev]
	switch ev.frame {
	case wire.KindStepDone:
		return a.onStepDone(ds, step)
	case wire.KindLosses:
		vals, err := wire.DecodeLosses(ev.f, a.losses)
		if err != nil {
			return err
		}
		a.losses = vals
		return a.onLosses(dev, ds, step, vals)
	case wire.KindSnapshot:
		if !a.snapshots {
			return nil // stray snapshot from a session we did not ask to send them
		}
		if _, seen := a.acct.Marks(dev); step <= seen {
			return duplicate(ds, "snapshot", step)
		}
		// The record holds the frame's bytes, which the account copies.
		if err := a.commit(ledger.Record{Type: ledger.TypeDevSnapshot, Dev: dev, Step: step, State: ev.f.Payload}); err != nil {
			return err
		}
		a.metrics.Add("snapshots", 1)
	case wire.KindSpans:
		if a.rp != nil && step != int(wire.NoStep) {
			return a.onSpans(dev, ds, step, ev.spans.Spans)
		}
	case wire.KindFinalParams:
		return a.onFinalParams(ds, ev.values)
	case wire.KindDone:
		if ds.done {
			return duplicate(ds, "done", step)
		}
		ds.done = true
		a.done++
		if a.done == len(a.devs) {
			// Graceful drain: every device reported Done, all frames consumed.
			a.broadcast(wire.Control(wire.KindDrain, wire.NoDev, wire.NoStep))
			a.emit(effect{kind: efFinish})
			a.over = true
		}
	default:
		return fmt.Errorf("cluster: worker %s sent unexpected %v frame", s.addr, ev.frame)
	}
	return nil
}

// broadcast sends f to every live session.
func (a *attemptCore) broadcast(f *wire.Frame) {
	for i := range a.sessions {
		if a.sessions[i].live {
			a.emit(effect{kind: efSend, sess: i, frame: f})
		}
	}
}

// tick applies the heartbeat rule: a live session silent for more than
// heartbeatMisses intervals is lost. A session whose link is absorbing a
// flap is exempt — silence is expected there, and if the reconnect
// budget runs out its reader reports the loss.
func (a *attemptCore) tick(at int64, reconnecting []bool) {
	if a.heartbeat <= 0 {
		return
	}
	timeout := heartbeatMisses * a.heartbeat
	for i := range a.sessions {
		s := &a.sessions[i]
		switch {
		case !s.live:
		case i < len(reconnecting) && reconnecting[i]:
			s.heard = at
		case time.Duration(at-s.heard) > timeout:
			a.emit(effect{kind: efEvent, ev: &Event{Kind: EventSilent, Worker: s.addr, Silence: time.Duration(at - s.heard), Timeout: timeout}})
			a.lost(i, fmt.Errorf("cluster: worker %s: heartbeat timeout after %v", s.addr, timeout))
			if a.over {
				return
			}
		}
	}
}

// lost retires a dead session and fails the attempt with the typed
// worker-lost error, which the driver turns into a restart of every
// device from the global cut (budget permitting): the dead worker's
// in-flight exchanges — a half-assembled input, one side of a ring
// collective — are abandoned with the attempt rather than replayed
// one-sided. A session whose devices were all done cannot affect the
// result, so losing it fails nothing.
func (a *attemptCore) lost(i int, cause error) {
	s := &a.sessions[i]
	if !s.live {
		return
	}
	s.live = false
	a.emit(effect{kind: efClose, sess: i})
	for _, d := range s.devices {
		if !a.devs[d].done {
			a.fail(workerLostError{cause: cause})
			return
		}
	}
	a.emit(effect{kind: efEvent, ev: &Event{Kind: EventDropped, Worker: s.addr, Devices: s.devices}})
}

// linkDown records a worker's report that a peer link exhausted its
// reconnect budget and returns the typed worker-lost error the attempt
// fails with: the driver then classifies the failure — degrade the edge to
// relay when every worker is still alive (budget-free), or fall through
// to a budget-counted restart.
func (a *attemptCore) linkDown(s *session, edge [2]int) error {
	down := [][2]int{edge}
	a.emit(effect{kind: efEvent, ev: &Event{Kind: EventLinkDown, Worker: s.addr, Edges: down}})
	return workerLostError{cause: fmt.Errorf("peer link %d<->%d persistently down", edge[0], edge[1]), down: down}
}

// duplicate is the protocol error for a frame the device already sent: an
// attempt starts every device just past the cut, and the resumable links
// replay exactly the frames a flap lost, so nothing legitimate repeats.
func duplicate(ds *devState, what string, step int) error {
	return fmt.Errorf("cluster: duplicate %s from group %d rank %d step %d", what, ds.gi, ds.j, step)
}

// onStepDone counts the global no-DPU barrier; the arrival that completes
// a step persists the release and sends every device its StepGo.
func (a *attemptCore) onStepDone(ds *devState, step int) error {
	if err := a.acct.CheckStep(step); err != nil {
		return fmt.Errorf("cluster: step-done from group %d rank %d: %w", ds.gi, ds.j, err)
	}
	if step <= ds.arrived {
		return duplicate(ds, "step-done", step)
	}
	ds.arrived = step
	a.barrier[step]++
	if a.barrier[step] < len(a.devs) {
		return nil
	}
	delete(a.barrier, step)
	// Only the release is persisted: it implies every device's arrival,
	// and an unreleased barrier means no device completed the step, so
	// every device re-arrives after a restart.
	if err := a.commit(*ledger.Barrier(step)); err != nil {
		return err
	}
	for d, i := range a.host {
		if a.sessions[i].live {
			a.emit(effect{kind: efSend, sess: i, frame: wire.PooledControl(wire.KindStepGo, int32(d), int32(step))})
		}
	}
	return nil
}

// onLosses records a member's per-block losses; the report that completes
// a step for the whole first group counts it in steps_completed.
func (a *attemptCore) onLosses(dev int, ds *devState, step int, vals []float64) error {
	if seen, _ := a.acct.Marks(dev); step <= seen {
		return duplicate(ds, "losses", step)
	}
	if err := a.commit(*ledger.Losses(dev, step, vals)); err != nil {
		return err
	}
	if ds.gi == 0 {
		// Devices report each step once, in order, so the step's last
		// reporter is the one that finds every sibling at or past it.
		for _, d := range a.plan.Groups[0].Devices {
			if seen, _ := a.acct.Marks(d); seen < step {
				return nil
			}
		}
		a.metrics.Add("steps_completed", 1)
	}
	return nil
}

// commit is how the attempt changes the run's restart state: the record
// is applied to the account — checked and recorded exactly as a ledger
// replay would — and only then handed to the shell to persist, so the log
// only ever holds records its own replay accepts. Whether a snapshotted
// step can be the cut is the account's call from every device's marks,
// never the snapshot's alone. The record is the core's own, which the
// next event's overwrites.
func (a *attemptCore) commit(rec ledger.Record) error {
	a.rec = rec
	if err := a.acct.Apply(&a.rec); err != nil {
		return fmt.Errorf("cluster: %v record: %w", rec.Type, err)
	}
	a.emit(effect{kind: efRecord, rec: &a.rec})
	return nil
}

// onFinalParams installs a group leader's trained value slabs, one per
// block of its group, into the coordinator's workbench.
func (a *attemptCore) onFinalParams(ds *devState, values []*tensor.Tensor) error {
	if ds.j != 0 {
		return fmt.Errorf("cluster: final params from non-leader rank %d of group %d", ds.j, ds.gi)
	}
	blocks := a.plan.Groups[ds.gi].Blocks
	if len(values) != len(blocks) {
		return fmt.Errorf("cluster: group %d returned %d trained slabs for its %d blocks", ds.gi, len(values), len(blocks))
	}
	for i, b := range blocks {
		dst := a.workb.Pairs[b].Slabs.Values
		if !values[i].SameShape(dst) {
			return fmt.Errorf("cluster: group %d trained slab %d shape %v, block %d's is %v", ds.gi, i, values[i].Shape(), b, dst.Shape())
		}
		dst.CopyFrom(values[i])
	}
	return nil
}

// onSpans hands one device's measured step to the repartitioner and,
// when that completes a step every device has measured, has it evaluate
// the step. A proposal that qualifies while the account has a cut to
// restart from (>= 0, before the last step) is executed: announce the
// cut to every session (wire v6 Repartition frames, flushed by the
// graceful teardown) and fail the attempt with the typed error the drive
// loop turns into a restart on the new plan; without a usable cut it
// waits for the next step. A device sends a step's losses, snapshot and
// spans in that order on one session, so the cut is the newest step at
// or before the evaluated one that every group snapshotted.
func (a *attemptCore) onSpans(dev int, ds *devState, step int, spans []obs.Span) error {
	if err := a.acct.CheckStep(step); err != nil {
		return fmt.Errorf("cluster: spans from group %d rank %d: %w", ds.gi, ds.j, err)
	}
	busy := obs.BlockBusy(spans)
	if nb := len(a.plan.Groups[ds.gi].Blocks); len(busy) != nb {
		return fmt.Errorf("cluster: spans of step %d from group %d rank %d measure %d blocks, not its %d", step, ds.gi, ds.j, len(busy), nb)
	}
	done, err := a.rp.add(dev, step, busy)
	if done == nil {
		return err
	}
	plan, eval, ok := a.rp.evaluate(a.plan, done)
	if !ok {
		return nil
	}
	cut := a.acct.Cut()
	if cut < 0 || cut >= a.steps-1 {
		return nil
	}
	a.rp.applied[sched.Fingerprint(plan)] = true
	a.broadcast(wire.EncodeRepartition(int32(cut), plan))
	return &plannedRepartition{Event{Kind: EventRepartition, Step: cut, Plan: plan, Eval: eval}}
}

// result merges the per-member loss rows into the per-block trajectory,
// through the same helper (and therefore the same float64 evaluation
// order) as engine.RunPipelined.
func (a *attemptCore) result() engine.Result {
	res := engine.Result{Loss: make([][]float64, a.workb.NumBlocks())}
	for gi, g := range a.plan.Groups {
		merged := engine.MergeGroupLosses(a.acct.Losses()[gi], len(g.Blocks), g.Split(), a.steps)
		for bi, b := range g.Blocks {
			res.Loss[b] = merged[bi]
		}
	}
	return res
}
