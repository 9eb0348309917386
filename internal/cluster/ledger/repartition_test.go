package ledger

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pipebd/internal/cluster/wire"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

// TestRepartitionRecordRoundTrip: a repartition record (cut step plus
// encoded new plan) must replay exactly — resume rebuilds the plan
// generations from it.
func TestRepartitionRecordRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	led := mustCreate(t, dir, sampleManifest())
	plan := sched.Plan{Name: "rebalanced", Groups: []sched.Group{
		{Devices: []int{0}, Blocks: []int{0}},
		{Devices: []int{2}, Blocks: []int{1, 2, 3}},
	}}
	payload := wire.EncodePlan(plan)
	recs := []*Record{
		Losses(0, 0, []float64{0.5}),
		Repartition(2, payload),
		Losses(0, 3, []float64{0.25}),
	}
	for _, rec := range recs {
		if err := led.Append(rec); err != nil {
			t.Fatalf("Append(%v): %v", rec.Type, err)
		}
	}
	led.Close()

	led2, _, rep, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer led2.Close()
	if len(rep.Records) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(rep.Records), len(recs))
	}
	got := rep.Records[1]
	if got.Type != TypeRepartition || got.Step != 2 {
		t.Fatalf("repartition record replayed as %+v, want type %v step 2", got, TypeRepartition)
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatal("repartition payload not byte-identical after replay")
	}
	decoded, err := wire.DecodePlan(got.Payload)
	if err != nil {
		t.Fatalf("decoding replayed plan: %v", err)
	}
	if decoded.Name != plan.Name || len(decoded.Groups) != len(plan.Groups) {
		t.Fatalf("replayed plan = %+v, want %+v", decoded, plan)
	}
}

// unsplitManifest is a repartition-shaped manifest: an all-unsplit
// three-group plan, every boundary of which the repartitioner may move.
func unsplitManifest() *Manifest {
	m := sampleManifest()
	m.Assign.Plan = sched.Plan{Name: "lopsided", Groups: []sched.Group{
		{Devices: []int{0}, Blocks: []int{0, 1}},
		{Devices: []int{1}, Blocks: []int{2}},
		{Devices: []int{2}, Blocks: []int{3}},
	}}
	return m
}

// rebalancedPlan is the plan the synthetic repartition cuts over to.
func rebalancedPlan() sched.Plan {
	return sched.Plan{Name: "rebalanced", Groups: []sched.Group{
		{Devices: []int{0}, Blocks: []int{0}},
		{Devices: []int{1}, Blocks: []int{1, 2}},
		{Devices: []int{2}, Blocks: []int{3}},
	}}
}

// snap is group gi's snapshot; under both plans group gi is device gi.
func snap(t *testing.T, rng *rand.Rand, gi, step int) *Record {
	t.Helper()
	return DevSnapshot(gi, step,
		[]*tensor.Tensor{tensor.Rand(rng, -1, 1, 3)},
		[]*tensor.Tensor{tensor.Rand(rng, -1, 1, 3)})
}

// TestCompactRepartitionedLogMidGeneration: a log cut mid-generation (the
// superseded generation's last common snapshot step trails the recorded
// cut) compacts to one checkpoint per generation with the repartition
// record between them, keeps each generation's restartable snapshots and
// every loss row, drops superseded tensors, and is idempotent.
func TestCompactRepartitionedLogMidGeneration(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	led := mustCreate(t, dir, unsplitManifest())
	rng := rand.New(rand.NewSource(23))
	repartPayload := wire.EncodePlan(rebalancedPlan())
	recs := []*Record{
		// Generation 0 under the lopsided plan: every group snapshots
		// steps 0 and 1, only group 0 reaches step 2, so the carry cut a
		// resume recovers (and the horizon Compact must keep) is step 1 —
		// even though the recorded cut is after step 2, and even though
		// device 2's loss rows stop at step 0 (a superseded generation's
		// horizon mirrors the carry, not the ring's loss accounting).
		snap(t, rng, 0, 0), snap(t, rng, 1, 0), snap(t, rng, 2, 0),
		Losses(0, 0, []float64{0.5, 0.4}), Losses(1, 0, []float64{0.3}), Losses(2, 0, []float64{0.2}),
		snap(t, rng, 0, 1), snap(t, rng, 1, 1), snap(t, rng, 2, 1),
		snap(t, rng, 0, 2),
		Repartition(2, repartPayload),
		// Generation 1 under the rebalanced plan.
		snap(t, rng, 0, 3), snap(t, rng, 1, 3), snap(t, rng, 2, 3),
		Losses(0, 3, []float64{0.1}), Losses(1, 3, []float64{0.2, 0.3}), Losses(2, 3, []float64{0.4}),
	}
	for _, rec := range recs {
		if err := led.Append(rec); err != nil {
			t.Fatalf("Append(%v): %v", rec.Type, err)
		}
	}
	led.Close()

	if err := Compact(dir); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	led2, _, rep, err := Open(dir)
	if err != nil {
		t.Fatalf("reopening compacted ledger: %v", err)
	}
	led2.Close()
	if len(rep.Records) != 3 ||
		rep.Records[0].Type != TypeCheckpoint ||
		rep.Records[1].Type != TypeRepartition ||
		rep.Records[2].Type != TypeCheckpoint {
		t.Fatalf("compacted repartitioned log = %v records, want checkpoint/repartition/checkpoint", typesOf(rep.Records))
	}
	if rep.Records[1].Step != 2 || !bytes.Equal(rep.Records[1].Payload, repartPayload) {
		t.Fatal("repartition record did not survive compaction byte-identically")
	}

	gen0 := rep.Records[0]
	snaps, losses := 0, 0
	for _, c := range gen0.Children {
		switch c.Type {
		case TypeDevSnapshot:
			snaps++
			// The horizon is the last common snapshot step at or below the
			// cut — step 1 — so every step-0 snapshot is dropped and every
			// later one (including group 0's step-2) survives.
			if c.Step < 1 {
				t.Fatalf("superseded generation kept a step-%d snapshot below its horizon", c.Step)
			}
		case TypeLosses:
			losses++
		}
	}
	if snaps != 4 || losses != 3 {
		t.Fatalf("superseded generation kept %d snapshots and %d loss rows, want 4 and 3", snaps, losses)
	}
	gen1 := rep.Records[2]
	for _, c := range gen1.Children {
		if c.Type == TypeDevSnapshot && c.Step != 3 {
			t.Fatalf("final generation kept a step-%d snapshot, want only the step-3 horizon", c.Step)
		}
	}

	// Idempotency: a second Compact must be a byte-identical no-op.
	first, err := os.ReadFile(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	if err := Compact(dir); err != nil {
		t.Fatalf("second Compact: %v", err)
	}
	second, err := os.ReadFile(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("Compact is not idempotent on a repartitioned log")
	}
}

// TestCompactRepartitionedLogAtCutBoundary: a coordinator killed right
// after appending the repartition record leaves an empty final
// generation; Compact must keep the superseded generation's snapshots at
// the recorded cut itself and emit an empty checkpoint for the empty
// generation.
func TestCompactRepartitionedLogAtCutBoundary(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	led := mustCreate(t, dir, unsplitManifest())
	rng := rand.New(rand.NewSource(29))
	recs := []*Record{
		snap(t, rng, 0, 0), snap(t, rng, 1, 0), snap(t, rng, 2, 0),
		snap(t, rng, 0, 1), snap(t, rng, 1, 1), snap(t, rng, 2, 1),
		Losses(0, 1, []float64{0.5, 0.4}),
		Repartition(1, wire.EncodePlan(rebalancedPlan())),
	}
	for _, rec := range recs {
		if err := led.Append(rec); err != nil {
			t.Fatalf("Append(%v): %v", rec.Type, err)
		}
	}
	led.Close()

	if err := Compact(dir); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	led2, _, rep, err := Open(dir)
	if err != nil {
		t.Fatalf("reopening compacted ledger: %v", err)
	}
	led2.Close()
	if len(rep.Records) != 3 || rep.Records[1].Type != TypeRepartition {
		t.Fatalf("compacted cut-boundary log = %v, want checkpoint/repartition/checkpoint", typesOf(rep.Records))
	}
	gen0 := rep.Records[0]
	for _, c := range gen0.Children {
		// Every group snapshotted the cut step itself, so the horizon is
		// the cut and the step-0 snapshots are dropped.
		if c.Type == TypeDevSnapshot && c.Step < 1 {
			t.Fatalf("kept a step-%d snapshot below the cut horizon", c.Step)
		}
	}
	empty := rep.Records[2]
	if len(empty.Children) != 0 {
		t.Fatalf("empty final generation compacted to %+v, want an empty checkpoint", empty)
	}
}

func typesOf(recs []*Record) []Type {
	ts := make([]Type, len(recs))
	for i, r := range recs {
		ts[i] = r.Type
	}
	return ts
}
