package cluster

import (
	"strings"
	"testing"
	"time"

	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/obs"
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
// connection — is declared dead by the attempt core's heartbeat rule and
// the restart places its device on the live worker; the run still
// matches the fault-free trajectory bit-for-bit.
func TestHeartbeatTimeoutDetectsSilentWorker(t *testing.T) {
	leakCheck(t)
	s := runSpec{plan: trPlan(), dpu: true, steps: 3, batch: 8}
	net := transport.NewLoopback()
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
	cfg.MaxRestarts, cfg.JoinTimeout, cfg.HeartbeatInterval = 1, 5*time.Second, 125*time.Millisecond
	cfg.Logf, cfg.Metrics = logf, counters
	res, w, err := s.run(net, []string{addrA, silentLis.Addr()}, cfg)
	if err != nil {
		t.Fatalf("run failed: %v\nlog:\n%s", err, logs())
	}
	if !strings.Contains(logs(), "silent for over") {
		t.Fatalf("heartbeat rule never fired; log:\n%s", logs())
	}
	// The silent listener refuses the re-join, so finishing means worker A
	// hosted the silent worker's device too.
	if n := counters.Counter("recoveries").Load(); n != 1 {
		t.Fatalf("run consumed %d restart(s), want 1; log:\n%s", n, logs())
	}
	s.check(t, res, w)
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
