package cluster

import (
	"fmt"
	"strings"
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
	logf, logs := captureLog()
	counters := obs.NewMetrics()
	cfg := s.config()
	cfg.MaxRestarts, cfg.Logf, cfg.Metrics = 1, logf, counters
	res, w, err := s.run(chaos, []string{addrA, addrB}, cfg)
	if err != nil {
		t.Fatalf("run failed: %v\nlog:\n%s", err, logs())
	}
	allFired(t, chaos)
	// addrB is unreachable, so finishing at all means worker A hosted both
	// devices of the restart.
	if n := counters.Counter("recoveries").Load(); n != 1 {
		t.Fatalf("run consumed %d restart(s), want 1; log:\n%s", n, logs())
	}
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

	logf, logs := captureLog()
	counters := obs.NewMetrics()
	cfg := s.config()
	cfg.MaxRestarts, cfg.HeartbeatInterval = 1, hb
	cfg.Logf, cfg.Metrics = logf, counters
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
		t.Fatalf("run failed: %v\nlog:\n%s", out.err, logs())
	}
	if want := fmt.Sprintf("worker %s silent for 625ms (over 500ms)", silentLis.Addr()); !strings.Contains(logs(), want) {
		t.Fatalf("log lacks %q; log:\n%s", want, logs())
	}
	// The silent listener refuses the re-join, so finishing means worker A
	// hosted the silent worker's device too.
	if n := counters.Counter("recoveries").Load(); n != 1 {
		t.Fatalf("run consumed %d restart(s), want 1; log:\n%s", n, logs())
	}
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
	logf, logs := captureLog()
	cfg := s.config()
	cfg.MaxRestarts, cfg.Logf = len(schedule), logf
	res, w, err := s.run(chaos, addrs, cfg)
	if err != nil {
		t.Fatalf("seeded chaos run failed (schedule %v): %v\nlog:\n%s", schedule, err, logs())
	}
	allFired(t, chaos)
	s.check(t, res, w)
}
