package cluster

import (
	"reflect"
	"testing"
	"time"

	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/obs"
	"pipebd/internal/testutil"
)

// TestRecoveryFallsBackToSurvivingWorker: when the dead worker cannot be
// re-joined (a persistent partition takes its address away together with
// its session), the restart places its devices on the OTHER, still-running
// worker, which hosts every device of the new attempt.
func TestRecoveryFallsBackToSurvivingWorker(t *testing.T) {
	leakCheck(t)
	s := runSpec{plan: trPlan(), dpu: true, steps: 4, batch: 8}
	inner := transport.NewLoopback()
	// Worker 0 serves until closed (it will absorb the whole restart);
	// worker 1 is cut off for good mid-run.
	addrA := startWorkers(t, inner, 1, WorkerConfig{})[0]
	addrB := startWorkers(t, inner, 1, WorkerConfig{Sessions: 1})[0]
	lost := recvFault(wire.KindLosses, 1, transport.ActPartition) // Delay 0: addrB never answers a dial again
	lost.Conn = 1
	chaos := transport.NewChaos(inner, lost)
	events := &eventLog{}
	counters := obs.NewMetrics()
	cfg := s.config()
	cfg.MaxRestarts, cfg.OnEvent, cfg.Metrics = 1, events.add, counters
	res, w, err := s.run(chaos, []string{addrA, addrB}, cfg)
	if err != nil {
		t.Fatalf("run failed: %v\nevents:\n%v", err, events)
	}
	allFired(t, chaos)
	// addrB is unreachable, so finishing at all means worker A hosted both
	// devices of the restart.
	wantRestarts(t, counters, events, 1)
	s.check(t, res, w)
}

// TestHeartbeatTimeoutDetectsSilentWorker: a worker that accepts the
// session and then goes silent — no heartbeats, no data, but a healthy
// connection — is declared dead by the attempt core's heartbeat rule, and
// the restart places its device on the live worker; the run still matches
// the fault-free trajectory bit-for-bit. Every wait runs on a manual
// clock, so the instant is exact: the ticks at 125, 250, 375 and 500 ms
// see at most four intervals of silence, the tick at 625 ms declares it.
// The silent worker holds the first slot, so the rule judges it first
// whenever the live worker's beacons reach the coordinator.
func TestHeartbeatTimeoutDetectsSilentWorker(t *testing.T) {
	leakCheck(t)
	const hb = 125 * time.Millisecond
	s := runSpec{plan: trPlan(), dpu: true, steps: 3, batch: 8}
	net, clock := transport.NewLoopback(), &testutil.ManualClock{}
	net.Clock = clock
	addrA := startWorkers(t, net, 1, WorkerConfig{})[0]

	// A fake worker that handshakes and then plays dead: it accepts one
	// session, sends hello, and never speaks again.
	silentLis, err := net.Listen("")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	silentDone := make(chan struct{})
	go func() {
		defer close(silentDone)
		conn, err := silentLis.Accept()
		if err != nil {
			return
		}
		silentLis.Close() // refuse the re-join attempt: force the fallback
		conn.Send(wire.Control(wire.KindHello, wire.NoDev, wire.NoStep))
		for {
			if _, err := conn.Recv(); err != nil {
				return // coordinator killed the connection
			}
		}
	}()
	t.Cleanup(func() { silentLis.Close(); <-silentDone })

	events := &eventLog{}
	counters := obs.NewMetrics()
	cfg := s.config()
	cfg.MaxRestarts, cfg.HeartbeatInterval = 1, hb
	cfg.OnEvent, cfg.Metrics = events.add, counters
	type outcome struct {
		res engine.Result
		w   *distill.Workbench
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, w, err := s.run(net, []string{silentLis.Addr(), addrA}, cfg)
		done <- outcome{res, w, err}
	}()
	for range heartbeatMisses + 1 {
		clock.WaitArmed(t, 2) // the coordinator's next tick and the live worker's beacon
		clock.Advance(hb)
	}
	out := testutil.Await(t, done, "the run's end")
	if out.err != nil {
		t.Fatalf("run failed: %v\nevents:\n%v", out.err, events)
	}
	want := Event{Kind: EventSilent, Worker: silentLis.Addr(), Silence: 625 * time.Millisecond, Timeout: 500 * time.Millisecond}
	if got := events.of(EventSilent); len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Fatalf("silence decisions %+v, want only %+v", got, want)
	}
	// The silent listener refuses the re-join, so finishing means worker A
	// hosted the silent worker's device too.
	wantRestarts(t, counters, events, 1)
	s.check(t, out.res, out.w)
}

// TestRecoverySeededSchedule drives the CLI's scenario generator end to
// end: a transport.RandomKills schedule (what -chaos-kills draws) must
// fire and recover to the engine's bits.
func TestRecoverySeededSchedule(t *testing.T) {
	leakCheck(t)
	s := runSpec{plan: hybridPlan(), dpu: true, steps: 6, batch: 8}
	inner := transport.NewLoopback()
	addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 1, Rejoin: true})
	schedule := transport.RandomKills(7, len(addrs), s.steps, 1)
	chaos := transport.NewChaos(inner, schedule...)
	events := &eventLog{}
	cfg := s.config()
	cfg.MaxRestarts, cfg.OnEvent = len(schedule), events.add
	res, w, err := s.run(chaos, addrs, cfg)
	if err != nil {
		t.Fatalf("seeded chaos run failed (schedule %v): %v\nevents:\n%v", schedule, err, events)
	}
	allFired(t, chaos)
	s.check(t, res, w)
}

// wantRestarts asserts that the run restarted n times, by its decisions
// and by the counter they add to.
func wantRestarts(t *testing.T, counters *obs.Metrics, events *eventLog, n int) {
	t.Helper()
	if got, counted := len(events.of(EventRestart)), counters.Counter("recoveries").Load(); got != n || counted != int64(n) {
		t.Fatalf("run restarted %d time(s) (counted %d), want %d; events:\n%v", got, counted, n, events)
	}
}
