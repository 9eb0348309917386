package cluster

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pipebd/internal/cluster/ledger"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
)

// TestSnapshotPolicyEdgeCases: the policy's validation errors. Its run
// cases — an interval longer than the run, whose resume replays from the
// seed, and one snapshot per group — are FuzzClusterRun draws, whose
// durable runs check every snapshot record against the policy.
func TestSnapshotPolicyEdgeCases(t *testing.T) {
	checkCorpusCases(t)
	t.Run("validation-errors", func(t *testing.T) {
		s := runSpec{plan: hybridPlan(), steps: 2, batch: 8}
		batches, w := s.batches(), s.workbench()
		net := transport.NewLoopback()
		base := s.config()
		base.MaxRestarts = 1

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
	s := runSpec{plan: plan("hybrid31", g([]int{0, 1}, []int{0, 1, 2}), g([]int{2}, []int{3})), steps: steps, batch: 16}
	inner := transport.NewLoopback()
	addrs := startWorkers(t, inner, 3, WorkerConfig{Sessions: 1})
	dir := filepath.Join(t.TempDir(), "ledger")
	cfg := s.config()
	cfg.Topology, cfg.MaxRestarts, cfg.LedgerDir = "hub", 1, dir
	if _, _, err := s.run(inner, addrs, cfg); err != nil {
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
	s := runSpec{plan: hybridPlan(), dpu: true, steps: 3, batch: 8}
	inner := transport.NewLoopback()
	addrs := startWorkers(t, inner, 2, WorkerConfig{Sessions: 1, Rejoin: true})
	dir := filepath.Join(t.TempDir(), "ledger")
	kill := recvFault(wire.KindLosses, 0, transport.ActKill)
	kill.Conn = 1
	chaos := transport.NewChaos(inner, kill)
	cfg := s.config()
	cfg.LedgerDir = dir
	if _, _, err := s.run(chaos, addrs, cfg); err == nil {
		t.Fatal("rigged run finished")
	}
	allFired(t, chaos)
	// Resume against fresh workers at new addresses.
	addrs2 := startWorkers(t, inner, 2, WorkerConfig{Sessions: 1, Rejoin: true})
	res, w2, err := ResumeRun(inner, dir, ResumeConfig{
		Addrs: addrs2, JoinTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("resume with address override failed: %v", err)
	}
	s.check(t, res, w2)
}
