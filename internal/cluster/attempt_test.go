package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"pipebd/internal/cluster/ledger"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

// twoSessionCore places attempt zero of a two-step hybridPlan run on two
// sessions — devices 0 and 1 on session 0, device 2 on session 1 — heard
// from at t0, with the given heartbeat interval.
func twoSessionCore(t *testing.T, cfg Config, t0 int64) (*driver, *attemptCore, wire.Snapshot) {
	t.Helper()
	d, core, seed := placedCore(t, cfg, 2)
	core.place(t0, []session{{addr: "a", devices: []int{0, 1}}, {addr: "b", devices: []int{2}}}, nil)
	return d, core, seed
}

// TestHeartbeatRuleInVirtualTime drives the core's heartbeat rule with
// synthetic tick times: a session is declared dead only past
// heartbeatMisses intervals of silence, a session whose link is
// reconnecting is exempt, and any event from a session refreshes it. No
// socket and no wall clock is involved.
func TestHeartbeatRuleInVirtualTime(t *testing.T) {
	const hb = 10 * time.Millisecond
	t0 := int64(1000 * time.Second)
	at := func(d time.Duration) int64 { return t0 + int64(d) }
	tick := func(d time.Duration, reconnecting ...bool) event {
		return event{kind: evTick, at: at(d), reconnecting: reconnecting}
	}
	// dead checks that effs report session sess silent for silence,
	// close it, and fail the attempt with a worker-lost heartbeat timeout.
	dead := func(t *testing.T, effs []effect, sess int, silence time.Duration) {
		t.Helper()
		var lost workerLostError
		want := Event{Kind: EventSilent, Worker: []string{"a", "b"}[sess], Silence: silence, Timeout: heartbeatMisses * hb}
		if len(effs) != 3 || effs[0].kind != efEvent || !reflect.DeepEqual(*effs[0].ev, want) ||
			effs[1].kind != efClose || effs[1].sess != sess ||
			!errors.As(failure(effs), &lost) || !strings.Contains(lost.Error(), "heartbeat timeout after 40ms") {
			t.Fatalf("got effects %+v, want %v, session %d closed and a heartbeat-timeout worker loss", effs, want, sess)
		}
	}
	cfg := Config{DPU: true, MaxRestarts: 1, HeartbeatInterval: hb}

	t.Run("dead only past four intervals", func(t *testing.T) {
		_, core, _ := twoSessionCore(t, cfg, t0)
		if effs := core.step(tick(heartbeatMisses * hb)); len(effs) != 0 {
			t.Fatalf("silent for exactly four intervals: got %+v, want nothing", effs)
		}
		dead(t, core.step(tick(heartbeatMisses*hb+time.Nanosecond)), 0, heartbeatMisses*hb+time.Nanosecond)
		if effs := core.step(tick(time.Hour)); effs != nil {
			t.Fatalf("a failed attempt emitted %+v", effs)
		}
	})
	t.Run("reconnecting link is exempt", func(t *testing.T) {
		_, core, _ := twoSessionCore(t, cfg, t0)
		if effs := core.step(tick(10*hb, true, true)); len(effs) != 0 {
			t.Fatalf("reconnecting sessions after ten intervals: got %+v, want nothing", effs)
		}
		// The exemption restarts the silence clock at the tick.
		if effs := core.step(tick(14 * hb)); len(effs) != 0 {
			t.Fatalf("four intervals after the exempt tick: got %+v, want nothing", effs)
		}
		dead(t, core.step(tick(14*hb+time.Nanosecond, true, false)), 1, 4*hb+time.Nanosecond)
	})
	t.Run("an event refreshes its session", func(t *testing.T) {
		_, core, _ := twoSessionCore(t, cfg, t0)
		for _, sess := range []int{0, 1} {
			core.step(frameEvent(sess, at(3*hb), wire.Control(wire.KindHeartbeat, wire.NoDev, wire.NoStep)))
		}
		if effs := core.step(tick(7 * hb)); len(effs) != 0 {
			t.Fatalf("four intervals after both sessions spoke: got %+v, want nothing", effs)
		}
		// A relay the reader forwarded also counts as hearing session 1.
		core.step(event{kind: evFrame, at: at(5 * hb), sess: 1, frame: wire.KindRelay})
		dead(t, core.step(tick(7*hb+time.Nanosecond)), 0, 4*hb+time.Nanosecond)
	})
	t.Run("no heartbeat, no rule", func(t *testing.T) {
		_, core, _ := twoSessionCore(t, Config{DPU: true, MaxRestarts: 1}, t0)
		if effs := core.step(tick(time.Hour)); len(effs) != 0 {
			t.Fatalf("an hour of silence without a heartbeat interval: got %+v", effs)
		}
	})
}

// TestPanicInStepFailsTheAttempt: a panic while the core handles an
// event — here installing final parameters into a workbench that is not
// there — fails the attempt with an error instead of ending the
// coordinator process.
func TestPanicInStepFailsTheAttempt(t *testing.T) {
	d, _, seed := placedCore(t, Config{DPU: true}, 2)
	r := d.newRun(1)
	r.core.place(0, []session{{addr: "x", devices: []int{0, 1, 2}}}, nil)
	r.core.workb = nil
	f := wire.EncodeTensors(wire.KindFinalParams, 0, wire.NoStep, seed.Student[:2])
	if err := failure(r.step(frameEvent(0, 0, f))); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("a panicking step: got %v, want the attempt failed with the panic", err)
	}
}

// TestSubMillisecondHeartbeatRefused: the workers receive the interval in
// whole milliseconds, so one under a millisecond would reach them as 0 —
// no beacon at all — while the coordinator still declared silence after
// four intervals. newDriver refuses it (and so does a resume, which
// builds its driver the same way); a whole millisecond is accepted.
func TestSubMillisecondHeartbeatRefused(t *testing.T) {
	placedCore(t, Config{DPU: true, MaxRestarts: 1, HeartbeatInterval: time.Millisecond}, 2)
	err := newDriverErr(Config{DPU: true, MaxRestarts: 1, HeartbeatInterval: 500 * time.Microsecond})
	if err == nil || !strings.Contains(err.Error(), "HeartbeatInterval 500µs") {
		t.Fatalf("a 500µs heartbeat: got %v, want a refusal naming HeartbeatInterval", err)
	}
}

// TestSubMillisecondRetryBudgetRefused: a retry budget under a millisecond
// would make the coordinator's links resumable and the workers' (which
// receive whole milliseconds) fail-fast; newDriver refuses it.
func TestSubMillisecondRetryBudgetRefused(t *testing.T) {
	err := newDriverErr(Config{DPU: true, Topology: "ring", RetryBudget: 999 * time.Microsecond})
	if err == nil || !strings.Contains(err.Error(), "RetryBudget 999µs") {
		t.Fatalf("a 999µs retry budget: got %v, want a refusal naming RetryBudget", err)
	}
}

// newDriverErr is the error newDriver returns for a two-step hybridPlan
// run under cfg.
func newDriverErr(cfg Config) error {
	s := runSpec{plan: hybridPlan(), steps: 2, batch: 8}
	w, base := s.workbench(), s.config()
	cfg.Plan, cfg.LR, cfg.Spec, cfg.Data = base.Plan, base.LR, base.Spec, base.Data
	_, err := NewCoordinator(nil, cfg).newDriver(w, CaptureSnapshot(w), 2, []string{"x"})
	return err
}

// TestSpansOutOfTurnFailTheAttempt: a span batch must measure its
// device's blocks at the device's next step of the run. A skipped,
// repeated or out-of-run step, or a batch measuring another block count,
// is a protocol error; the trailing flush (NoStep) is ignored; and once
// every device has measured step 0 the repartitioner moves on to step 1.
func TestSpansOutOfTurnFailTheAttempt(t *testing.T) {
	// batch is device dev's span batch of step, measuring blocks blocks,
	// on its session (devices 0 and 1 share session 0).
	batch := func(dev, step, blocks int) event {
		var spans []obs.Span
		for range blocks {
			for _, name := range []string{"teacher_fwd", "student_fwd", "student_bwd"} {
				spans = append(spans, obs.Span{Name: name, Dur: 10})
			}
		}
		return event{kind: evFrame, frame: wire.KindSpans, sess: dev / 2, dev: dev, step: step,
			spans: wire.SpanBatch{Spans: append(spans, obs.Span{Name: "sgd_update", Dur: 1})}}
	}
	armed := func(t *testing.T) *attemptCore {
		_, core, _ := twoSessionCore(t, Config{DPU: true, MaxRestarts: 1}, 0)
		core.rp = newRepartitioner(map[string]bool{sched.Fingerprint(core.plan): true}, len(core.devs), 0)
		return core
	}
	for _, c := range []struct {
		name   string
		events []event
		want   string
	}{
		{"skipped", []event{batch(0, 1, 2)}, "spans of step 1 from device 0, whose next step is 0"},
		{"repeated", []event{batch(0, 0, 2), batch(0, 0, 2)}, "spans of step 0 from device 0, whose next step is 1"},
		{"past the run", []event{batch(2, 2, 2)}, "step 2 outside the run's 2 steps"},
		{"one block short", []event{batch(1, 0, 1)}, "measure 1 blocks, not its 2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			core := armed(t)
			var err error
			for _, ev := range c.events {
				err = failure(core.step(ev))
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got %v, want the attempt failed with %q", err, c.want)
			}
		})
	}
	core := armed(t)
	for _, ev := range []event{batch(0, int(wire.NoStep), 0), batch(0, 0, 2), batch(1, 0, 2), batch(2, 0, 2), batch(2, 1, 2)} {
		if effs := core.step(ev); len(effs) != 0 {
			t.Fatalf("in-turn batch of device %d step %d: got %+v", ev.dev, ev.step, effs)
		}
	}
	if core.rp.from != 1 || len(core.rp.queue[2]) != 1 {
		t.Fatalf("after every device measured step 0 and device 2 step 1: from %d, device 2 holds %d steps, want 1 and 1",
			core.rp.from, len(core.rp.queue[2]))
	}
}

// fuzzInput hands out the fuzzer's bytes one small number at a time; past
// the end every number is 0.
type fuzzInput []byte

func (in *fuzzInput) next(n int) int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b) % n
}

// FuzzAttemptCore feeds the attempt core arbitrary sequences of decoded
// frames from any device and session, connection losses, link-downs and
// heartbeat ticks. The core must never panic, must emit nothing once it
// has finished or failed (and nothing after its own finish or fail
// effect), must name only sessions that exist, and every record it hands
// the shell must be one ledger.Account.Apply accepted: a second account
// applying the same records in the same order accepts them all. Span
// batches measure the device's blocks (or one block too few) at drawn
// steps — in order, repeated, before the attempt's first step or past the
// run: a live device's batch of any step but its next fails the attempt,
// and the repartitioner holds only steps of the run, never one every
// device has measured. The decisions it reports are exact: every session
// a tick's heartbeat rule kills yields one silent event carrying its
// silence in virtual time, a reconnecting session none, and every
// link-down a live session reports one event naming its edge.
func FuzzAttemptCore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 4, 0, 0, 0, 1, 4, 0, 1, 0, 1, 4, 0, 2, 0, 1, 5, 0, 0, 0, 2})
	f.Add([]byte{0, 9, 0, 0, 0, 0, 9, 0, 1, 0, 0, 9, 1, 2, 0, 0, 12, 0, 0, 0, 200})
	f.Add([]byte("\x01\x06\x00\x00\x00\x00\x01\x06\x01\x02\x01\x00\x0b\x00\x00\x00"))
	// Every device measures steps 0 and 1, each step completing on device
	// 2's batch: [dpu, first step], then per batch [time, session, op,
	// device+1, step+1, not wrong, three span durations per block].
	all := []byte{0, 0}
	for step := range 2 {
		for dev, sess := range []byte{0, 0, 1} {
			all = append(all, 0, sess, 7, byte(dev+1), byte(step+1), 1, 3, 5, 7, 2, 4, 6)
		}
	}
	f.Add(all)
	// Session 1 reports link 1<->2 down; a tick 6 ms in, session 0's link
	// reconnecting, kills session 1 alone: [time, session, op, ...].
	f.Add([]byte{0, 0, 0, 1, 3, 2, 3, 1})
	f.Add([]byte{0, 0, 60, 0, 12, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		dpu := in.next(2) == 1
		d, core, seed := twoSessionCore(t, Config{DPU: dpu, MaxRestarts: 1, HeartbeatInterval: time.Millisecond}, 0)
		core.rp = newRepartitioner(map[string]bool{sched.Fingerprint(core.plan): true}, len(core.devs), in.next(2))
		shadow, err := ledger.NewAccount(&d.setup)
		if err != nil {
			t.Fatal(err)
		}
		// groupSlabs are the slabs device dev's group trains, or — with
		// wrong — one slab short.
		groupSlabs := func(dev int, wrong bool) []*tensor.Tensor {
			var out []*tensor.Tensor
			for _, b := range core.plan.Groups[core.devs[max(0, min(dev, 2))].gi].Blocks {
				out = append(out, seed.Student[b])
			}
			if wrong {
				out = out[1:]
			}
			return out
		}
		kinds := []wire.Kind{wire.KindHello, wire.KindHeartbeat, wire.KindRelay, wire.KindLinkDown,
			wire.KindStepDone, wire.KindLosses, wire.KindSnapshot, wire.KindSpans, wire.KindFinalParams,
			wire.KindDone, wire.KindOutput}
		now := int64(0)
		over := false
		for len(in) > 0 {
			now += int64(in.next(256)) * int64(100*time.Microsecond)
			ev := event{kind: evFrame, at: now, sess: in.next(2)}
			switch op := in.next(len(kinds) + 3); {
			case op == len(kinds):
				ev.kind, ev.err = evLost, fmt.Errorf("connection reset")
			case op == len(kinds)+1:
				ev.kind, ev.reconnecting = evTick, []bool{in.next(2) == 1, in.next(2) == 1}
			case op == len(kinds)+2:
				ev.err = fmt.Errorf("payload does not decode")
			default:
				ev.frame = kinds[op]
				ev.dev, ev.step = in.next(5)-1, in.next(5)-1
				wrong := in.next(4) == 0
				switch ev.frame {
				case wire.KindLinkDown:
					ev.link = [2]int{ev.dev, ev.step}
				case wire.KindLosses:
					ev.f = wire.EncodeLosses(int32(ev.dev), int32(ev.step), make([]float64, in.next(4)))
				case wire.KindSnapshot:
					ev.f = wire.EncodeDeviceSnapshot(int32(ev.dev), int32(ev.step), groupSlabs(ev.dev, wrong), groupSlabs(ev.dev, false))
				case wire.KindFinalParams:
					ev.values = groupSlabs(ev.dev, wrong)
				case wire.KindSpans:
					nb := len(core.plan.Groups[core.devs[max(0, min(ev.dev, 2))].gi].Blocks)
					if wrong {
						nb--
					}
					for range nb {
						for _, name := range []string{"teacher_fwd", "student_fwd", "student_bwd"} {
							ev.spans.Spans = append(ev.spans.Spans, obs.Span{Name: name, Dur: int64(1 + in.next(256)*int(time.Microsecond))})
						}
					}
					ev.spans.Spans = append(ev.spans.Spans, obs.Span{Name: "sgd_update", Dur: 1})
				}
			}
			// A live device's batch of any step but its next is a
			// protocol error.
			rp, next := core.rp, -1
			if ev.kind == evFrame && ev.frame == wire.KindSpans && ev.err == nil && core.sessions[ev.sess].live &&
				ev.dev >= 0 && ev.dev < len(core.devs) && ev.step != int(wire.NoStep) {
				next = rp.from + len(rp.queue[ev.dev])
			}
			heard := []int64{core.sessions[0].heard, core.sessions[1].heard}
			linkDown := !over && ev.kind == evFrame && ev.frame == wire.KindLinkDown && ev.err == nil && core.sessions[ev.sess].live
			effs := core.step(ev)
			checkDecisions(t, ev, effs, heard, linkDown)
			if next >= 0 && ev.step != next && !over && failure(effs) == nil {
				t.Fatalf("spans of step %d from device %d, whose next step is %d, did not fail the attempt", ev.step, ev.dev, next)
			}
			if !slices.ContainsFunc(rp.queue, func(q [][]float64) bool { return len(q) == 0 }) {
				t.Fatalf("the repartitioner holds a step every device measured: %d", rp.from)
			}
			for d, q := range rp.queue {
				if rp.from+len(q) > core.steps {
					t.Fatalf("device %d has steps %d-%d of a %d-step run pending", d, rp.from, rp.from+len(q)-1, core.steps)
				}
			}
			if over && effs != nil {
				t.Fatalf("the core emitted %+v after it finished or failed", effs)
			}
			for i, e := range effs {
				switch e.kind {
				case efFinish, efFail:
					over = true
					if i != len(effs)-1 {
						t.Fatalf("effects %+v go on past the attempt's end", effs)
					}
				case efRecord:
					if err := shadow.Apply(e.rec); err != nil {
						t.Fatalf("the core emitted a %v record its account should have refused: %v", e.rec.Type, err)
					}
				}
				if (e.kind == efSend || e.kind == efClose) && (e.sess < 0 || e.sess >= len(core.sessions)) {
					t.Fatalf("effect %+v names no session", e)
				}
			}
		}
	})
}

// checkDecisions checks the decisions among the effects of event ev on
// twoSessionCore's sessions "a" and "b", which were last heard from at
// heard: a session the event closes is reported silent exactly when ev is
// a tick, silent for exactly the time since it was heard — more than
// heartbeatMisses of FuzzAttemptCore's 1 ms intervals — and not
// reconnecting; and linkDown, a link-down the core accepted, is reported
// once with its edge.
func checkDecisions(t *testing.T, ev event, effs []effect, heard []int64, linkDown bool) {
	t.Helper()
	silent := map[int]int{}
	var closed []int
	downs := 0
	for _, e := range effs {
		switch {
		case e.kind == efClose:
			closed = append(closed, e.sess)
		case e.kind != efEvent:
		case e.ev.Kind == EventSilent:
			i := slices.Index([]string{"a", "b"}, e.ev.Worker)
			silent[i]++
			if ev.kind != evTick || e.ev.Silence != time.Duration(ev.at-heard[i]) ||
				e.ev.Timeout != heartbeatMisses*time.Millisecond || e.ev.Silence <= e.ev.Timeout ||
				i < len(ev.reconnecting) && ev.reconnecting[i] {
				t.Fatalf("event %+v at %d reported %v (heard at %d)", ev, ev.at, e.ev, heard[i])
			}
		case e.ev.Kind == EventLinkDown:
			downs++
			if !linkDown || !slices.Equal(e.ev.Edges, [][2]int{ev.link}) || e.ev.Worker != []string{"a", "b"}[ev.sess] {
				t.Fatalf("event %+v reported %v", ev, e.ev)
			}
		}
	}
	for _, i := range closed {
		if ev.kind == evTick && silent[i] != 1 {
			t.Fatalf("tick at %d killed session %d with %d silent event(s)", ev.at, i, silent[i])
		}
	}
	if len(silent) > len(closed) || linkDown && downs != 1 {
		t.Fatalf("event %+v: %d session(s) reported silent, %d closed; %d link-down event(s), accepted %v",
			ev, len(silent), len(closed), downs, linkDown)
	}
}
