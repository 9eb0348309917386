package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/obs"
	"pipebd/internal/testutil"
)

// leakCheck is the shared goroutine-leak assertion (testutil.LeakCheck),
// aliased so the suite's many call sites stay short.
func leakCheck(t *testing.T) {
	t.Helper()
	testutil.LeakCheck(t)
}

// captureLog returns a concurrency-safe Logf plus a reader for the lines
// it collected.
func captureLog() (func(string, ...any), func() string) {
	var mu sync.Mutex
	var b strings.Builder
	logf := func(format string, args ...any) {
		mu.Lock()
		fmt.Fprintf(&b, format+"\n", args...)
		mu.Unlock()
	}
	read := func() string {
		mu.Lock()
		defer mu.Unlock()
		return b.String()
	}
	return logf, read
}

// wantRecoveries asserts on the outcome of the fault path rather than its
// log text: the run consumed exactly n restarts from its budget.
func wantRecoveries(t *testing.T, m *obs.Metrics, n int64, logs func() string) {
	t.Helper()
	if got := m.Counter("recoveries").Load(); got != n {
		t.Fatalf("run consumed %d restart(s), want %d; log:\n%s", got, n, logs())
	}
}

func killLosses(conn int, step int32) transport.Fault {
	return transport.Fault{
		Trigger: transport.Trigger{Conn: conn, Op: transport.OpRecv,
			Kind: wire.KindLosses, Step: step, Count: 1},
		Action: transport.ActKill,
	}
}

// TestRecoveryBitEquivalence is the fault-tolerance acceptance suite:
// a seeded chaos schedule kills one worker's connection while a step's
// loss report is in flight — at the first, a middle, and the last step —
// on loopback and on real TCP, with and without decoupled parameter
// update. Every case must recover (supersede both sessions, restart every
// device from the global cut, replay) and finish with losses AND trained
// weights bit-identical to the fault-free in-process engine.RunPipelined.
func TestRecoveryBitEquivalence(t *testing.T) {
	leakCheck(t)
	const steps = 5
	batches := tinyBatches(steps, 8)
	p := hybridPlan()

	refs := map[bool]*distill.Workbench{}
	refRes := map[bool]engine.Result{}
	for _, dpu := range []bool{false, true} {
		ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
		refRes[dpu] = engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: dpu, LR: 0.05, Momentum: 0.9})
		refs[dpu] = ref
	}

	transports := map[string]func() transport.Network{
		"loopback": func() transport.Network { return transport.NewLoopback() },
		"tcp":      func() transport.Network { return transport.TCP{} },
	}
	for name, mkNet := range transports {
		for _, dpu := range []bool{false, true} {
			for _, killStep := range []int32{0, steps / 2, steps - 1} {
				label := fmt.Sprintf("%s/dpu=%v/kill-step-%d", name, dpu, killStep)
				t.Run(label, func(t *testing.T) {
					inner := mkNet()
					// Rejoin: neither the killed session nor the one the cut
					// supersedes may consume its worker's budget, so both
					// workers can host the restart.
					addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 1, Rejoin: true})
					// Worker 1 hosts the second pipeline group's device; kill
					// its connection while the chosen step's losses cross.
					chaos := transport.NewChaos(inner, killLosses(1, killStep))
					logf, logs := captureLog()
					counters := obs.NewMetrics()
					w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
					res, err := Run(chaos, addrs, w, batches, Config{
						Plan: p, DPU: dpu, LR: 0.05, Momentum: 0.9,
						Spec:        TinySpec(distill.DefaultTinyConfig()),
						MaxRestarts: 2, JoinTimeout: 10 * time.Second, Logf: logf,
						Metrics: counters,
					})
					if err != nil {
						t.Fatalf("run with injected kill failed: %v\nlog:\n%s", err, logs())
					}
					wantRecoveries(t, counters, 1, logs)
					lossesBitIdentical(t, label, res, refRes[dpu])
					weightsBitIdentical(t, label, w, refs[dpu])
				})
			}
		}
	}
}

// TestRecoveryKillSplitGroupWorker kills the worker hosting BOTH ranks of
// the data-parallel group: the hub's half-assembled gathers die with the
// attempt, the restart recomputes them from the cut, and the run still
// matches the fault-free trajectory exactly.
func TestRecoveryKillSplitGroupWorker(t *testing.T) {
	leakCheck(t)
	batches := tinyBatches(5, 8)
	p := hybridPlan()
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	inner := transport.NewLoopback()
	addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 1, Rejoin: true})
	chaos := transport.NewChaos(inner, killLosses(0, 2))
	logf, logs := captureLog()
	counters := obs.NewMetrics()
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	res, err := Run(chaos, addrs, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
		Spec:        TinySpec(distill.DefaultTinyConfig()),
		MaxRestarts: 1, JoinTimeout: 10 * time.Second, Logf: logf,
		Metrics: counters,
	})
	if err != nil {
		t.Fatalf("run with split-group kill failed: %v\nlog:\n%s", err, logs())
	}
	wantRecoveries(t, counters, 1, logs)
	lossesBitIdentical(t, "split-group recovery", res, refRes)
	weightsBitIdentical(t, "split-group recovery", w, ref)
}

// TestRecoveryFallsBackToSurvivingWorker: when the dead worker cannot be
// re-joined (a persistent partition takes its address away together with
// its session), the restart places its devices on the OTHER, still-running
// worker, which hosts every device of the new attempt.
func TestRecoveryFallsBackToSurvivingWorker(t *testing.T) {
	leakCheck(t)
	batches := tinyBatches(4, 8)
	p := plan("tr-2dev", g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3}))
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	inner := transport.NewLoopback()
	// Worker 0 serves until closed (it will absorb the whole restart);
	// worker 1 is cut off for good mid-run.
	addrA := startWorkers(t, inner, 1, WorkerConfig{})[0]
	addrB := startWorkers(t, inner, 1, WorkerConfig{Sessions: 1})[0]
	lost := killLosses(1, 1)
	lost.Action = transport.ActPartition // Delay 0: addrB never answers a dial again
	chaos := transport.NewChaos(inner, lost)
	logf, logs := captureLog()
	counters := obs.NewMetrics()
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	res, err := Run(chaos, []string{addrA, addrB}, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
		Spec:        TinySpec(distill.DefaultTinyConfig()),
		MaxRestarts: 1, JoinTimeout: 10 * time.Second, Logf: logf,
		Metrics: counters,
	})
	if err != nil {
		t.Fatalf("run failed: %v\nlog:\n%s", err, logs())
	}
	// addrB is unreachable, so finishing at all means worker A hosted both
	// devices of the restart.
	wantRecoveries(t, counters, 1, logs)
	lossesBitIdentical(t, "surviving-worker fallback", res, refRes)
	weightsBitIdentical(t, "surviving-worker fallback", w, ref)
}

// TestHeartbeatTimeoutDetectsSilentWorker: a worker that accepts the
// session and then goes silent — no heartbeats, no data, but a healthy
// connection — is declared dead by the heartbeat monitor and the restart
// places its device on the live worker; the run still matches the
// fault-free trajectory bit-for-bit.
func TestHeartbeatTimeoutDetectsSilentWorker(t *testing.T) {
	leakCheck(t)
	batches := tinyBatches(3, 8)
	p := plan("tr-2dev", g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3}))
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

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
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	res, err := Run(net, []string{addrA, silentLis.Addr()}, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
		Spec:        TinySpec(distill.DefaultTinyConfig()),
		MaxRestarts: 1, JoinTimeout: 5 * time.Second,
		HeartbeatInterval: 25 * time.Millisecond, HeartbeatTimeout: 500 * time.Millisecond,
		Logf: logf, Metrics: counters,
	})
	if err != nil {
		t.Fatalf("run failed: %v\nlog:\n%s", err, logs())
	}
	if !strings.Contains(logs(), "silent for over") {
		t.Fatalf("heartbeat monitor never fired; log:\n%s", logs())
	}
	// The silent listener refuses the re-join, so finishing means worker A
	// hosted the silent worker's device too.
	wantRecoveries(t, counters, 1, logs)
	lossesBitIdentical(t, "heartbeat recovery", res, refRes)
	weightsBitIdentical(t, "heartbeat recovery", w, ref)
}

// TestRecoveryBudgetExhausted: once MaxRestarts recoveries are spent, the
// next death fails the run with the underlying cause — and the failure
// path must not leak goroutines even though the second death hits a
// restarted attempt's session.
func TestRecoveryBudgetExhausted(t *testing.T) {
	leakCheck(t)
	batches := tinyBatches(6, 8)
	p := hybridPlan()
	inner := transport.NewLoopback()
	addrs := startWorkers(t, inner, 2, WorkerConfig{Rejoin: true})
	chaos := transport.NewChaos(inner,
		killLosses(1, 1),
		// Conn 2 is the restarted attempt's first session; kill it too.
		killLosses(2, 3),
	)
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	_, err := Run(chaos, addrs, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
		Spec:        TinySpec(distill.DefaultTinyConfig()),
		MaxRestarts: 1, JoinTimeout: 5 * time.Second,
	})
	if err == nil {
		t.Fatal("run survived more deaths than MaxRestarts allows")
	}
	if !errors.Is(err, transport.ErrChaos) {
		t.Fatalf("failure should surface the injected fault: %v", err)
	}
}

// TestPeerDeathMidGatherFailsCleanly pins the pre-recovery contract and
// the leak fix together: with fault tolerance off (MaxRestarts 0), a
// worker killed while its gradient gather is half-assembled fails the run
// with the injected cause — and every goroutine (device loops blocked on
// the dead all-reduce, outbox writers, readers) is torn down, which
// leakCheck asserts after cleanup.
func TestPeerDeathMidGatherFailsCleanly(t *testing.T) {
	leakCheck(t)
	batches := tinyBatches(4, 8)
	p := hybridPlan()
	inner := transport.NewLoopback()
	addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 1})
	// Worker 0 hosts both ranks of the split group; killing its
	// connection on a mid-run gradient frame leaves the hub's gather for
	// that step permanently incomplete.
	chaos := transport.NewChaos(inner, transport.Fault{
		Trigger: transport.Trigger{Conn: 0, Op: transport.OpRecv,
			Kind: wire.KindGrads, Step: 1, Count: 1},
		Action: transport.ActKill,
	})
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	_, err := Run(chaos, addrs, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
		Spec: TinySpec(distill.DefaultTinyConfig()),
	})
	if err == nil {
		t.Fatal("mid-gather worker death reported success")
	}
	if !errors.Is(err, transport.ErrChaos) {
		t.Fatalf("error should wrap the injected fault: %v", err)
	}
}

// TestRecoveryTruncatedFrame: a frame cut off mid-write (the crash
// half-writes a relay input) poisons the receiving worker's session; the
// coordinator restarts from the cut, recomputing the lost frame, and the
// result is still bit-identical.
func TestRecoveryTruncatedFrame(t *testing.T) {
	leakCheck(t)
	batches := tinyBatches(4, 8)
	p := plan("tr-2dev", g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3}))
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	inner := transport.NewLoopback()
	addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 1, Rejoin: true})
	chaos := transport.NewChaos(inner, transport.Fault{
		Trigger: transport.Trigger{Conn: 1, Op: transport.OpSend,
			Kind: wire.KindInput, Step: 2, Count: 1},
		Action: transport.ActTruncate,
	})
	logf, logs := captureLog()
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	res, err := Run(chaos, addrs, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
		Spec:        TinySpec(distill.DefaultTinyConfig()),
		MaxRestarts: 1, JoinTimeout: 10 * time.Second, Logf: logf,
	})
	if err != nil {
		t.Fatalf("run with truncated frame failed: %v\nlog:\n%s", err, logs())
	}
	lossesBitIdentical(t, "truncated-frame recovery", res, refRes)
	weightsBitIdentical(t, "truncated-frame recovery", w, ref)
}

// TestRecoverySeededSchedule drives the reusable scenario generator
// end-to-end: a RandomKills schedule (the same shape the chaos CI job
// uses) must recover to a bit-identical result, and the same seed must
// produce the same schedule.
func TestRecoverySeededSchedule(t *testing.T) {
	leakCheck(t)
	const steps = 6
	batches := tinyBatches(steps, 8)
	p := hybridPlan()
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	inner := transport.NewLoopback()
	addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 1, Rejoin: true})
	schedule := transport.RandomKills(7, len(addrs), steps, 1)
	chaos := transport.NewChaos(inner, schedule...)
	logf, logs := captureLog()
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	res, err := Run(chaos, addrs, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
		Spec:        TinySpec(distill.DefaultTinyConfig()),
		MaxRestarts: len(schedule), JoinTimeout: 10 * time.Second, Logf: logf,
	})
	if err != nil {
		t.Fatalf("seeded chaos run failed (schedule %v): %v\nlog:\n%s", schedule, err, logs())
	}
	lossesBitIdentical(t, "seeded schedule", res, refRes)
	weightsBitIdentical(t, "seeded schedule", w, ref)
}
