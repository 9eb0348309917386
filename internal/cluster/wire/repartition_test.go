package wire

import (
	"reflect"
	"testing"

	"pipebd/internal/sched"
)

func repartitionPlan() sched.Plan {
	return sched.Plan{Name: "rebalanced", Groups: []sched.Group{
		{Devices: []int{0}, Blocks: []int{0}},
		{Devices: []int{1}, Blocks: []int{1, 2}},
		{Devices: []int{2, 3}, Blocks: []int{3}, Shares: []int{2, 1}},
	}}
}

// TestPlanPayloadRoundTrip: the standalone plan codec (the ledger's
// repartition record body) preserves every field, including shares.
func TestPlanPayloadRoundTrip(t *testing.T) {
	p := repartitionPlan()
	got, err := DecodePlan(EncodePlan(p))
	if err != nil {
		t.Fatalf("DecodePlan: %v", err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("plan round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

// TestPlanPayloadTruncatedRejected: every truncation of a valid plan
// payload must error, never yield a silently partial plan.
func TestPlanPayloadTruncatedRejected(t *testing.T) {
	full := EncodePlan(repartitionPlan())
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodePlan(full[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", cut, len(full))
		}
	}
	if _, err := DecodePlan(append(append([]byte{}, full...), 0xff)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
}

// TestRepartitionFrameRoundTrip: the cut step rides the frame header,
// the plan rides the payload, and both survive the wire.
func TestRepartitionFrameRoundTrip(t *testing.T) {
	p := repartitionPlan()
	got := roundTripFrame(t, EncodeRepartition(6, p))
	if got.Kind != KindRepartition || got.Step != 6 || got.Dev != NoDev {
		t.Fatalf("frame header mismatch: %+v", got)
	}
	plan, err := DecodePlan(got.Payload)
	if err != nil {
		t.Fatalf("DecodePlan: %v", err)
	}
	if !reflect.DeepEqual(plan, p) {
		t.Fatalf("repartition plan mismatch:\n got %+v\nwant %+v", plan, p)
	}
}
