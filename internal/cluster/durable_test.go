package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pipebd/internal/cluster/ledger"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
)

// The durable tests rig a "coordinator crash" deterministically: a chaos
// kill severs a coordinator connection while MaxRestarts is 0, so the
// run fails exactly as a SIGKILLed coordinator would leave it — ledger
// written through the crash point, workers orphaned mid-session (they
// survive via Rejoin, awaiting the resumed coordinator's restart). The CI
// job covers the literal kill -9 of a real pipebd process over TCP.
const stepsPerRun = 5

// lossRowCounts reopens a run's ledger and counts how often each
// (device, step) loss row was logged: once when the step completed, once
// more for every restart that replayed it.
func lossRowCounts(t *testing.T, dir string) map[[2]int]int {
	t.Helper()
	led, _, rep, err := ledger.Open(dir)
	if err != nil {
		t.Fatalf("ledger open: %v", err)
	}
	led.Close()
	counts := map[[2]int]int{}
	for _, rec := range rep.Records {
		if rec.Type == ledger.TypeLosses {
			counts[[2]int{rec.Dev, rec.Step}]++
		}
	}
	return counts
}

// TestCoordinatorKillResume is the durable-run acceptance matrix: a
// coordinator killed at the first, a middle, and the last step — on
// loopback and on real TCP, at snapshot interval 1 and k > 1 — must be
// restartable via ResumeRun with losses AND trained weights bit-identical
// to the fault-free in-process engine.RunPipelined.
func TestCoordinatorKillResume(t *testing.T) {
	leakCheck(t)
	batches := tinyBatches(stepsPerRun, 8)
	p := hybridPlan()
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	transports := map[string]func() transport.Network{
		"loopback": func() transport.Network { return transport.NewLoopback() },
		"tcp":      func() transport.Network { return transport.TCP{} },
	}
	for name, mkNet := range transports {
		for _, interval := range []int{1, 3} {
			for _, killStep := range []int32{0, stepsPerRun / 2, stepsPerRun - 1} {
				label := fmt.Sprintf("%s/interval-%d/kill-step-%d", name, interval, killStep)
				t.Run(label, func(t *testing.T) {
					inner := mkNet()
					addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 1, Rejoin: true})
					dir := filepath.Join(t.TempDir(), "ledger")
					chaos := transport.NewChaos(inner, killLosses(1, killStep))
					w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
					_, err := Run(chaos, addrs, w, batches, Config{
						Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
						Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(stepsPerRun, 8),
						Snapshot:    SnapshotPolicy{Interval: interval},
						LedgerDir:   dir,
						JoinTimeout: 10 * time.Second,
					})
					if err == nil {
						t.Fatal("rigged run finished despite the injected coordinator crash")
					}
					if !errors.Is(err, transport.ErrChaos) {
						t.Fatalf("crash should surface the injected fault: %v", err)
					}

					logf, logs := captureLog()
					res, w2, err := ResumeRun(inner, dir, ResumeConfig{
						JoinTimeout: 10 * time.Second, Logf: logf,
					})
					if err != nil {
						t.Fatalf("resume failed: %v\nlog:\n%s", err, logs())
					}
					lossesBitIdentical(t, label, res, refRes)
					weightsBitIdentical(t, label, w2, ref)
					if interval == 1 {
						// The resume restarts from the crashed run's cut, not the
						// seed. The coordinator relayed step k's input only
						// after it processed the head group's step-(k-1)
						// losses and snapshots, which precede it on the same
						// control link, so every step before the kill was
						// inside the cut and must never have been replayed.
						for key, n := range lossRowCounts(t, dir) {
							if key[1] < int(killStep) && n != 1 {
								t.Fatalf("device %d step %d loss row logged %d times: resume replayed a step inside the cut; log:\n%s",
									key[0], key[1], n, logs())
							}
						}
					}
				})
			}
		}
	}
}

// TestCoordinatorKillResumeDedup runs the crash/resume cycle around the
// split group's one-snapshot-per-group accounting (rank 0 snapshots, every
// member's loss and barrier marks gate the cut), with and without the
// global step barrier (DPU off exercises the barrier-arrival half), killing
// the split-group worker and the tail worker. The loss matrix comparison
// doubles as the completeness check: a dropped member loss row would
// diverge from the fault-free reference.
func TestCoordinatorKillResumeDedup(t *testing.T) {
	leakCheck(t)
	batches := tinyBatches(stepsPerRun, 8)
	p := hybridPlan()
	refs := map[bool]*distill.Workbench{}
	refRes := map[bool]engine.Result{}
	for _, dpu := range []bool{false, true} {
		ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
		refRes[dpu] = engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: dpu, LR: 0.05, Momentum: 0.9})
		refs[dpu] = ref
	}
	for _, dpu := range []bool{false, true} {
		for _, interval := range []int{1, 2} {
			for _, conn := range []int{0, 1} { // kill the split-group worker and the tail worker
				label := fmt.Sprintf("dpu=%v/interval-%d/kill-conn-%d", dpu, interval, conn)
				t.Run(label, func(t *testing.T) {
					inner := transport.NewLoopback()
					addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 1, Rejoin: true})
					dir := filepath.Join(t.TempDir(), "ledger")
					chaos := transport.NewChaos(inner, killLosses(conn, stepsPerRun/2))
					w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
					_, err := Run(chaos, addrs, w, batches, Config{
						Plan: p, DPU: dpu, LR: 0.05, Momentum: 0.9,
						Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(stepsPerRun, 8),
						Snapshot:    SnapshotPolicy{Interval: interval},
						LedgerDir:   dir,
						JoinTimeout: 10 * time.Second,
					})
					if err == nil {
						t.Fatal("rigged run finished despite the injected coordinator crash")
					}
					res, w2, err := ResumeRun(inner, dir, ResumeConfig{JoinTimeout: 10 * time.Second})
					if err != nil {
						t.Fatalf("resume failed: %v", err)
					}
					lossesBitIdentical(t, label, res, refRes[dpu])
					weightsBitIdentical(t, label, w2, refs[dpu])
				})
			}
		}
	}
}

// TestDoubleCrashResume kills the coordinator, kills the RESUMED
// coordinator too, and resumes again: the ledger keeps growing across
// generations, so the third coordinator restores state written by both
// predecessors and still lands bit-identical.
func TestDoubleCrashResume(t *testing.T) {
	leakCheck(t)
	batches := tinyBatches(stepsPerRun, 8)
	p := hybridPlan()
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	inner := transport.NewLoopback()
	addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 1, Rejoin: true})
	dir := filepath.Join(t.TempDir(), "ledger")

	chaos := transport.NewChaos(inner, killLosses(1, 1))
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	if _, err := Run(chaos, addrs, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
		Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(stepsPerRun, 8),
		Snapshot: SnapshotPolicy{Interval: 2}, LedgerDir: dir,
		JoinTimeout: 10 * time.Second,
	}); err == nil {
		t.Fatal("first rigged run finished")
	}

	// Second generation: resume through a chaos net that kills again.
	chaos2 := transport.NewChaos(inner, killLosses(1, 3))
	if _, _, err := ResumeRun(chaos2, dir, ResumeConfig{JoinTimeout: 10 * time.Second}); err == nil {
		t.Fatal("second rigged run finished")
	}

	res, w3, err := ResumeRun(inner, dir, ResumeConfig{JoinTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("second resume failed: %v", err)
	}
	lossesBitIdentical(t, "double crash", res, refRes)
	weightsBitIdentical(t, "double crash", w3, ref)
}

// TestResumeOfCompletedRun: resuming a ledger whose run already finished
// must replay the trailing steps idempotently and return the identical
// result — the degenerate case a too-late resume script will hit.
func TestResumeOfCompletedRun(t *testing.T) {
	leakCheck(t)
	batches := tinyBatches(4, 8)
	p := hybridPlan()
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	inner := transport.NewLoopback()
	addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 2, Rejoin: true})
	dir := filepath.Join(t.TempDir(), "ledger")
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	res, err := Run(inner, addrs, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
		Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(4, 8),
		Snapshot: SnapshotPolicy{Interval: 3}, LedgerDir: dir,
		JoinTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("durable run failed: %v", err)
	}
	lossesBitIdentical(t, "durable run", res, refRes)

	res2, w2, err := ResumeRun(inner, dir, ResumeConfig{JoinTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("resume of completed run failed: %v", err)
	}
	lossesBitIdentical(t, "resume of completed run", res2, refRes)
	weightsBitIdentical(t, "resume of completed run", w2, ref)
}

// TestResumedRunSurvivesWorkerLoss composes the two recovery layers: the
// resumed coordinator itself loses a worker mid-replay and must restart
// again within the resumed run's restart budget, still bit-identical.
func TestResumedRunSurvivesWorkerLoss(t *testing.T) {
	leakCheck(t)
	batches := tinyBatches(stepsPerRun, 8)
	p := hybridPlan()
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	inner := transport.NewLoopback()
	addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 1, Rejoin: true})
	dir := filepath.Join(t.TempDir(), "ledger")
	chaos := transport.NewChaos(inner, killLosses(1, 1))
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	if _, err := Run(chaos, addrs, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
		Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(stepsPerRun, 8),
		LedgerDir:   dir,
		JoinTimeout: 10 * time.Second,
	}); err == nil {
		t.Fatal("rigged run finished")
	}

	// The resumed run loses worker conn 1 (dial order of the rejoin) on a
	// later step and must recover with its own restart budget.
	chaos2 := transport.NewChaos(inner, killLosses(1, stepsPerRun-1))
	logf, logs := captureLog()
	res, w2, err := ResumeRun(chaos2, dir, ResumeConfig{
		JoinTimeout: 10 * time.Second, MaxRestarts: 1, Logf: logf,
	})
	if err != nil {
		t.Fatalf("resume with worker loss failed: %v\nlog:\n%s", err, logs())
	}
	if left := chaos2.Unfired(); len(left) != 0 {
		t.Fatalf("the resumed run never lost its worker (unfired: %v); log:\n%s", left, logs())
	}
	lossesBitIdentical(t, "resume + worker loss", res, refRes)
	weightsBitIdentical(t, "resume + worker loss", w2, ref)
}

// TestSnapshotPolicyEdgeCases is the table-driven policy suite: interval
// beyond the run length (resume replays everything from the seed),
// interval 1, one snapshot per group, and the validation errors.
func TestSnapshotPolicyEdgeCases(t *testing.T) {
	t.Run("interval-longer-than-run", func(t *testing.T) {
		leakCheck(t)
		batches := tinyBatches(3, 8)
		p := hybridPlan()
		ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
		refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

		inner := transport.NewLoopback()
		addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 1, Rejoin: true})
		dir := filepath.Join(t.TempDir(), "ledger")
		chaos := transport.NewChaos(inner, killLosses(1, 1))
		w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
		if _, err := Run(chaos, addrs, w, batches, Config{
			Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
			Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(3, 8),
			Snapshot:    SnapshotPolicy{Interval: 100}, // no step ever snapshots
			LedgerDir:   dir,
			JoinTimeout: 10 * time.Second,
		}); err == nil {
			t.Fatal("rigged run finished")
		}
		// No snapshot can exist; resume must replay the whole run from the
		// seed weights. Close the inspection handle before resuming: Open
		// holds the single-writer flock.
		led, _, rep, err := ledger.Open(dir)
		if err != nil {
			t.Fatalf("ledger open: %v", err)
		}
		led.Close()
		for _, rec := range rep.Records {
			if rec.Type == ledger.TypeDevSnapshot {
				t.Fatalf("interval 100 still persisted a %v record", rec.Type)
			}
		}
		res, w2, err := ResumeRun(inner, dir, ResumeConfig{JoinTimeout: 10 * time.Second})
		if err != nil {
			t.Fatalf("seed-replay resume failed: %v", err)
		}
		lossesBitIdentical(t, "interval > steps", res, refRes)
		weightsBitIdentical(t, "interval > steps", w2, ref)
	})

	t.Run("validation-errors", func(t *testing.T) {
		batches := tinyBatches(2, 8)
		w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
		net := transport.NewLoopback()
		base := Config{Plan: hybridPlan(), LR: 0.05,
			Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(2, 8), MaxRestarts: 1}

		bad := base
		bad.Snapshot = SnapshotPolicy{Interval: -2}
		if _, err := Run(net, []string{"x"}, w, batches, bad); err == nil || !strings.Contains(err.Error(), "interval") {
			t.Fatalf("negative interval accepted: %v", err)
		}
		bad = base
		bad.MaxRestarts = 0
		bad.Snapshot = SnapshotPolicy{Interval: 2}
		if _, err := Run(net, []string{"x"}, w, batches, bad); err == nil || !strings.Contains(err.Error(), "fault tolerance") {
			t.Fatalf("policy without fault tolerance accepted: %v", err)
		}
		if p, _ := effectivePolicy(wire.SnapshotPolicy{}, true); p.Interval != 1 {
			t.Fatalf("zero policy under fault tolerance resolved to %+v, want interval 1", p)
		}
		if p, err := effectivePolicy(wire.SnapshotPolicy{}, false); err != nil || p.Enabled() {
			t.Fatalf("zero policy without fault tolerance resolved to %+v (%v)", p, err)
		}
	})

	t.Run("dedup-ships-one-snapshot-per-group", func(t *testing.T) {
		batches := tinyBatches(4, 8)
		p := hybridPlan()
		inner := transport.NewLoopback()
		addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 1, Rejoin: true})
		dir := filepath.Join(t.TempDir(), "ledger")
		w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
		if _, err := Run(inner, addrs, w, batches, Config{
			Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
			Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(4, 8),
			Snapshot:  SnapshotPolicy{Interval: 2},
			LedgerDir: dir, JoinTimeout: 10 * time.Second,
		}); err != nil {
			t.Fatalf("durable run failed: %v", err)
		}
		led, _, rep, err := ledger.Open(dir)
		if err != nil {
			t.Fatalf("ledger open: %v", err)
		}
		led.Close()
		// hybridPlan: devices 0 and 2 are their groups' rank 0, device 1
		// is the split group's replica and must ship nothing.
		snaps := map[int]int{}
		for _, rec := range rep.Records {
			if rec.Type != ledger.TypeDevSnapshot {
				continue
			}
			snaps[rec.Dev]++
			if (rec.Step+1)%2 != 0 {
				t.Fatalf("interval 2 committed a snapshot at step %d", rec.Step)
			}
		}
		if len(snaps) != 2 || snaps[0] != 2 || snaps[2] != 2 {
			t.Fatalf("snapshot records per device = %v, want two each from devices 0 and 2 only", snaps)
		}
	})
}

// TestHubLedgerHoldsOnlyCutRecords pins what the single recovery model
// costs on disk, on the benchmark's conv_hub_durable shape (hub, hybrid31,
// 64 steps of batch 16, global barrier, a snapshot every step): the log
// holds only what the global cut is computed from — one snapshot per
// group, a loss row per device, barrier releases — and stays under 4,000
// bytes per step. Nothing in
// flight (relayed inputs, output shards, reductions) is ever logged.
func TestHubLedgerHoldsOnlyCutRecords(t *testing.T) {
	leakCheck(t)
	const steps = 64
	batches := tinyBatches(steps, 16)
	p := plan("hybrid31", g([]int{0, 1}, []int{0, 1, 2}), g([]int{2}, []int{3}))
	inner := transport.NewLoopback()
	addrs := startWorkers(t, inner, 3, WorkerConfig{Sessions: 1})
	dir := filepath.Join(t.TempDir(), "ledger")
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	if _, err := Run(inner, addrs, w, batches, Config{
		Plan: p, LR: 0.05, Momentum: 0.9, Topology: "hub",
		Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(steps, 16),
		MaxRestarts: 1, LedgerDir: dir, JoinTimeout: 10 * time.Second,
	}); err != nil {
		t.Fatalf("durable hub run failed: %v", err)
	}
	led, _, rep, err := ledger.Open(dir)
	if err != nil {
		t.Fatalf("ledger open: %v", err)
	}
	led.Close()
	seen := map[ledger.Type]int{}
	for _, rec := range rep.Records {
		seen[rec.Type]++
	}
	want := map[ledger.Type]int{
		ledger.TypeDevSnapshot: 2 * steps, ledger.TypeLosses: 3 * steps, ledger.TypeBarrier: steps}
	for typ, n := range seen {
		if want[typ] != n {
			t.Fatalf("hub ledger holds %d %v records, want %d (all: %v)", n, typ, want[typ], seen)
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("hub ledger record kinds = %v, want exactly %v", seen, want)
	}
	fi, err := os.Stat(filepath.Join(dir, ledger.LogName))
	if err != nil {
		t.Fatal(err)
	}
	if perStep := fi.Size() / steps; perStep >= 4000 {
		t.Fatalf("hub ledger writes %d B/step, want < 4000", perStep)
	}
}

// TestResumeErrors: a missing or unusable ledger directory surfaces a
// clean error, and resuming with an address override reaches the workers
// even when the manifest's addresses are stale.
func TestResumeErrors(t *testing.T) {
	if _, _, err := ResumeRun(transport.NewLoopback(), filepath.Join(t.TempDir(), "absent"), ResumeConfig{}); err == nil {
		t.Fatal("resume of absent ledger dir succeeded")
	}

	// Stale manifest addresses, fresh override.
	batches := tinyBatches(3, 8)
	p := hybridPlan()
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})
	inner := transport.NewLoopback()
	addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 1, Rejoin: true})
	dir := filepath.Join(t.TempDir(), "ledger")
	chaos := transport.NewChaos(inner, killLosses(1, 0))
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	if _, err := Run(chaos, addrs, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
		Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(3, 8), LedgerDir: dir,
		JoinTimeout: 10 * time.Second,
	}); err == nil {
		t.Fatal("rigged run finished")
	}
	// Resume against fresh workers at new addresses.
	addrs2 := startWorkers(t, inner, 2, WorkerConfig{Sessions: 1, Rejoin: true})
	res, w2, err := ResumeRun(inner, dir, ResumeConfig{
		Addrs: addrs2, JoinTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("resume with address override failed: %v", err)
	}
	lossesBitIdentical(t, "address override", res, refRes)
	weightsBitIdentical(t, "address override", w2, ref)
}
