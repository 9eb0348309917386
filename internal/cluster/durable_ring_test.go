package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pipebd/internal/cluster/ledger"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/obs"
)

// TestRingCoordinatorKillResume is the durable-ring acceptance matrix: a
// ring coordinator killed at the first, a middle, and the last step must
// be restartable via ResumeRun. Unlike the hub, nothing of the data plane
// is replayed through the coordinator — the resume recovers the global
// cut from the ledger and restarts every device there, so the matrix
// covers both snapshot densities (interval 1 and a sparse interval whose
// cut trails the crash point) and both step-accounting modes (the DPU
// loss path and the barrier path).
func TestRingCoordinatorKillResume(t *testing.T) {
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

	for _, interval := range []int{1, 2} {
		// Interval 1 runs the DPU loss accounting, interval 2 the barrier
		// accounting — both feed the ring cut the resume restarts from.
		dpu := interval == 1
		for _, killStep := range []int32{0, stepsPerRun / 2, stepsPerRun - 1} {
			label := fmt.Sprintf("interval-%d/kill-step-%d", interval, killStep)
			t.Run(label, func(t *testing.T) {
				inner := transport.NewLoopback()
				addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 1, Rejoin: true, Dial: inner})
				dir := filepath.Join(t.TempDir(), "ledger")
				// The chaos net carries only the coordinator's control-plane
				// connections; peer links dial over the clean inner net, so
				// the kill is a coordinator crash, not a worker loss.
				chaos := transport.NewChaos(inner, killLosses(1, killStep))
				w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
				_, err := Run(chaos, addrs, w, batches, Config{
					Plan: p, DPU: dpu, LR: 0.05, Momentum: 0.9, Topology: "ring",
					Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(stepsPerRun, 8),
					Snapshot:    SnapshotPolicy{Interval: interval},
					LedgerDir:   dir,
					JoinTimeout: 10 * time.Second,
				})
				if err == nil {
					t.Fatal("rigged ring run finished despite the injected coordinator crash")
				}
				if !errors.Is(err, transport.ErrChaos) {
					t.Fatalf("crash should surface the injected fault: %v", err)
				}

				logf, logs := captureLog()
				res, w2, err := ResumeRun(inner, dir, ResumeConfig{
					JoinTimeout: 10 * time.Second, Logf: logf,
				})
				if err != nil {
					t.Fatalf("ring resume failed: %v\nlog:\n%s", err, logs())
				}
				lossesBitIdentical(t, label, res, refRes[dpu])
				weightsBitIdentical(t, label, w2, refs[dpu])
			})
		}
	}
}

// TestRingDoubleCrashResume kills the ring coordinator, kills the RESUMED
// ring coordinator too, and resumes again: the shared ledger grows across
// generations and the third coordinator's cut reflects both predecessors.
func TestRingDoubleCrashResume(t *testing.T) {
	leakCheck(t)
	batches := tinyBatches(stepsPerRun, 8)
	p := hybridPlan()
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	inner := transport.NewLoopback()
	addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 1, Rejoin: true, Dial: inner})
	dir := filepath.Join(t.TempDir(), "ledger")

	chaos := transport.NewChaos(inner, killLosses(1, 1))
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	if _, err := Run(chaos, addrs, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9, Topology: "ring",
		Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(stepsPerRun, 8), LedgerDir: dir,
		JoinTimeout: 10 * time.Second,
	}); err == nil {
		t.Fatal("first rigged ring run finished")
	}

	chaos2 := transport.NewChaos(inner, killLosses(1, 3))
	if _, _, err := ResumeRun(chaos2, dir, ResumeConfig{JoinTimeout: 10 * time.Second}); err == nil {
		t.Fatal("second rigged ring run finished")
	}

	res, w3, err := ResumeRun(inner, dir, ResumeConfig{JoinTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("second ring resume failed: %v", err)
	}
	lossesBitIdentical(t, "ring double crash", res, refRes)
	weightsBitIdentical(t, "ring double crash", w3, ref)
}

// TestRingResumeOfCompletedRun: resuming a finished ring ledger restarts
// at the last cut, replays the (possibly empty) tail idempotently, and
// returns the identical result.
func TestRingResumeOfCompletedRun(t *testing.T) {
	leakCheck(t)
	batches := tinyBatches(4, 8)
	p := hybridPlan()
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	inner := transport.NewLoopback()
	addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 2, Rejoin: true, Dial: inner})
	dir := filepath.Join(t.TempDir(), "ledger")
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	res, err := Run(inner, addrs, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9, Topology: "ring",
		Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(4, 8),
		Snapshot: SnapshotPolicy{Interval: 3}, LedgerDir: dir,
		JoinTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("durable ring run failed: %v", err)
	}
	lossesBitIdentical(t, "durable ring run", res, refRes)

	res2, w2, err := ResumeRun(inner, dir, ResumeConfig{JoinTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("resume of completed ring run failed: %v", err)
	}
	lossesBitIdentical(t, "resume of completed ring run", res2, refRes)
	weightsBitIdentical(t, "resume of completed ring run", w2, ref)
}

// TestCompactedLedgerResume is the compaction acceptance matrix: for both
// topologies, a ledger compacted after a coordinator crash (and after a
// completed run) must still resume bit-identically — the checkpoint
// record is a valid sub-history and, for the ring, still contains a
// common snapshot step every group can restart from.
func TestCompactedLedgerResume(t *testing.T) {
	leakCheck(t)
	batches := tinyBatches(stepsPerRun, 8)
	p := hybridPlan()
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	for _, topology := range []string{"hub", "ring"} {
		for _, crash := range []bool{true, false} {
			label := fmt.Sprintf("%s/crash-%v", topology, crash)
			t.Run(label, func(t *testing.T) {
				inner := transport.NewLoopback()
				addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 2, Rejoin: true, Dial: inner})
				dir := filepath.Join(t.TempDir(), "ledger")
				net := transport.Network(inner)
				if crash {
					net = transport.NewChaos(inner, killLosses(1, stepsPerRun/2))
				}
				w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
				res, err := Run(net, addrs, w, batches, Config{
					Plan: p, DPU: true, LR: 0.05, Momentum: 0.9, Topology: topology,
					Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(stepsPerRun, 8),
					Snapshot:    SnapshotPolicy{Interval: 2},
					LedgerDir:   dir,
					JoinTimeout: 10 * time.Second,
				})
				if crash && err == nil {
					t.Fatal("rigged run finished despite the injected coordinator crash")
				}
				if !crash {
					if err != nil {
						t.Fatalf("durable run failed: %v", err)
					}
					lossesBitIdentical(t, label+" first pass", res, refRes)
				}

				if err := ledger.Compact(dir); err != nil {
					t.Fatalf("compact: %v", err)
				}
				// The compacted log must be a single checkpoint record.
				led, _, rep, err := ledger.Open(dir)
				if err != nil {
					t.Fatalf("reopening compacted ledger: %v", err)
				}
				led.Close()
				if len(rep.Records) != 1 || rep.Records[0].Type != ledger.TypeCheckpoint {
					t.Fatalf("compacted log holds %d records (first %v), want one checkpoint",
						len(rep.Records), rep.Records[0].Type)
				}

				res2, w2, err := ResumeRun(inner, dir, ResumeConfig{JoinTimeout: 10 * time.Second})
				if err != nil {
					t.Fatalf("resume from compacted ledger failed: %v", err)
				}
				lossesBitIdentical(t, label, res2, refRes)
				weightsBitIdentical(t, label, w2, ref)
			})
		}
	}
}

// TestRingResumeKeepsRetryBudget: a resumed run takes its retry budget
// from the manifest like every other run setting, so a resumed ring run
// still absorbs a link flap — no restart, nothing lost. The flap is armed
// on the second pass over step 3's pair exchange: the first run passes it
// once, and the resume, restarting from the step-2 snapshot, replays it.
func TestRingResumeKeepsRetryBudget(t *testing.T) {
	leakCheck(t)
	const steps = 4
	batches := tinyBatches(steps, 8)
	p := hybridPlan()
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	inner := transport.NewLoopback()
	chaos := transport.NewChaos(inner, transport.Fault{
		Trigger: transport.Trigger{Conn: transport.AnyConn, Op: transport.OpRecv,
			Kind: wire.KindRingSegment, Step: steps - 1, Count: 2},
		Action: transport.ActFlap,
	})
	counters := obs.NewMetrics()
	addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 2, Rejoin: true, Dial: chaos, Metrics: counters})
	dir := filepath.Join(t.TempDir(), "ledger")
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	if _, err := Run(inner, addrs, w, batches, Config{
		Plan: p, DPU: true, LR: 0.05, Momentum: 0.9, Topology: "ring",
		Spec: TinySpec(distill.DefaultTinyConfig()), Data: tinyData(steps, 8),
		Snapshot: SnapshotPolicy{Interval: 3}, LedgerDir: dir, RetryBudget: fastRetry,
		JoinTimeout: 10 * time.Second,
	}); err != nil {
		t.Fatalf("durable ring run failed: %v", err)
	}
	if n := len(chaos.Unfired()); n != 1 {
		t.Fatalf("the flap fired during the first run (%d unfired); it must wait for the resume", n)
	}

	logf, logs := captureLog()
	res, w2, err := ResumeRun(inner, dir, ResumeConfig{JoinTimeout: 10 * time.Second, Logf: logf})
	if err != nil {
		t.Fatalf("resume with a flapping peer link failed: %v\nlog:\n%s", err, logs())
	}
	if unfired := chaos.Unfired(); len(unfired) > 0 {
		t.Fatalf("flap never fired during the resume (%v)", unfired)
	}
	if strings.Contains(logs(), "restarting every device from step") {
		t.Fatalf("the resumed run spent a restart on a flap; log:\n%s", logs())
	}
	if got := counters.Counter("link_faults_absorbed").Load(); got == 0 {
		t.Fatalf("the resumed run absorbed no link fault; log:\n%s", logs())
	}
	lossesBitIdentical(t, "resumed flap", res, refRes)
	weightsBitIdentical(t, "resumed flap", w2, ref)
}
