package cluster

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pipebd/internal/cluster/ledger"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/sched"
)

// manifestLedger writes a ledger holding just the manifest of a ring run
// of plan over steps, fed by data, returning its directory. Every case
// below must fail validation before a single worker is dialed.
func manifestLedger(t *testing.T, p sched.Plan, data wire.DataSpec, steps int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ledger")
	s := runSpec{plan: p, steps: steps}
	led, err := ledger.Create(dir, &ledger.Manifest{
		Assign: wire.Assign{
			Plan: s.plan,
			Spec: s.modelSpec(),
			Run: wire.RunConfig{LR: 0.05, Momentum: 0.9, Steps: steps,
				Topology: "ring", Snap: wire.SnapshotPolicy{Interval: 1}, Data: data},
			Snapshot: CaptureSnapshot(s.workbench()),
		},
		Addrs: []string{"127.0.0.1:1"},
	})
	if err != nil {
		t.Fatalf("creating the manifest's ledger: %v", err)
	}
	led.Close()
	return dir
}

// TestResumeExpectationMismatches is the mismatch matrix: a caller
// resuming with explicit expectations about the run (plan name, topology,
// step count, model name) must get a clear diagnostic when the
// ledger holds a different run, instead of silently training it.
func TestResumeExpectationMismatches(t *testing.T) {
	const steps = 4
	dir := manifestLedger(t, hybridPlan(), runSpec{steps: steps, batch: 6}.data(), steps)
	cases := []struct {
		name   string
		expect ResumeExpectation
		want   string
	}{
		{"plan", ResumeExpectation{PlanName: "tr"}, `holds plan "hybrid"`},
		{"topology", ResumeExpectation{Topology: "hub"}, "holds a ring-topology run, not hub"},
		{"steps", ResumeExpectation{Steps: steps + 3}, "holds a 4-step run, not 7"},
		{"model", ResumeExpectation{Model: "transformer"}, `holds model "tiny", not "transformer"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ResumeRun(transport.NewLoopback(), dir, ResumeConfig{Expect: &tc.expect})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("expectation %+v: got %v, want error containing %q", tc.expect, err, tc.want)
			}
			if err != nil && !strings.Contains(err.Error(), "resume inherits") {
				t.Fatalf("mismatch diagnostic should explain that resume inherits from the manifest: %v", err)
			}
		})
	}

	// Matching expectations pass validation: the resume proceeds to dial
	// the (dead) manifest address and fails there instead — proving the
	// gate, not the network, decided the cases above.
	good := ResumeExpectation{PlanName: "hybrid", Topology: "ring", Steps: steps, Model: "tiny"}
	_, _, err := ResumeRun(transport.NewLoopback(), dir,
		ResumeConfig{Expect: &good, JoinTimeout: 200 * time.Millisecond})
	if err == nil {
		t.Fatal("resume against a dead worker address should fail after validation")
	}
	if strings.Contains(err.Error(), "resume inherits") {
		t.Fatalf("matching expectations must not trip validation: %v", err)
	}
}

// TestResumeRejectsInconsistentManifest: a manifest whose plan cannot
// drive its own seed snapshot (wrong block count), or whose data recipe —
// the run's only copy of its batches — cannot feed its steps, is corrupt
// provenance, not an operational mismatch: resume refuses it up front.
func TestResumeRejectsInconsistentManifest(t *testing.T) {
	s := runSpec{plan: hybridPlan(), steps: 3, batch: 6}
	bad := hybridPlan()
	bad.Groups[1].Blocks = []int{2} // plan now covers 3 of the snapshot's 4 blocks
	noClasses := s.data()
	noClasses.Classes = 0
	short := s.data()
	short.N = 2 * s.batch
	cases := []struct {
		name string
		plan sched.Plan
		data wire.DataSpec
		want string
	}{
		{"plan", bad, s.data(), "does not fit its own seed snapshot"},
		{"short recipe", hybridPlan(), short, "recipe yields 2 batches for 3 steps"},
		{"malformed recipe", hybridPlan(), noClasses, "manifest data recipe"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ResumeRun(transport.NewLoopback(), manifestLedger(t, tc.plan, tc.data, s.steps), ResumeConfig{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("inconsistent manifest: got %v, want a refusal containing %q", err, tc.want)
			}
		})
	}
}

// TestResumeAndCompactRefuseMisfitRepartition: a repartition record is
// checked like every other record. A plan with a block the run does not
// have, another device count, or a block on another number of members
// cannot take the run's state: ResumeRun and ledger.Compact refuse the
// record by its index, with no panic and before a worker is dialed.
func TestResumeAndCompactRefuseMisfitRepartition(t *testing.T) {
	cases := []struct {
		name string
		plan sched.Plan
	}{
		{"unknown block", plan("misfit", g([]int{0}, []int{0, 1, 2, 9}))},
		{"device count", plan("misfit", g([]int{0, 1, 2, 3}, []int{0, 1, 2, 3}))},
		{"member count", plan("misfit", g([]int{0}, []int{0, 1}), g([]int{1, 2}, []int{2, 3}))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := manifestLedger(t, hybridPlan(), runSpec{steps: 4, batch: 6}.data(), 4)
			led, _, _, err := ledger.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range []*ledger.Record{ledger.Barrier(0), ledger.Repartition(1, wire.EncodePlan(tc.plan))} {
				if err := led.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			led.Close()
			const want = "record 1 (repartition)"
			net := &dialCounter{Network: transport.NewLoopback()}
			_, _, err = ResumeRun(net, dir, ResumeConfig{JoinTimeout: 200 * time.Millisecond})
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("ResumeRun: got %v, want an error naming %q", err, want)
			}
			if n := net.dials.Load(); n != 0 {
				t.Fatalf("ResumeRun dialed %d times before refusing the record", n)
			}
			if err := ledger.Compact(dir); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Compact: got %v, want an error naming %q", err, want)
			}
		})
	}
}
