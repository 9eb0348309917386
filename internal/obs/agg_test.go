package obs

import (
	"slices"
	"testing"
)

// computeBatch builds one step's span batch for a device hosting
// len(tf) blocks: per-block teacher/student triples in block order, one
// shared optimizer-update span, all laid out back to back from start 0.
func computeBatch(tf, sf, sb []int64, update int64) []Span {
	var spans []Span
	at := int64(0)
	emit := func(name string, dur int64) {
		spans = append(spans, Span{Name: name, Start: at, Dur: dur})
		at += dur
	}
	for i := range tf {
		emit(spanTeacherFwd, tf[i])
		emit(spanStudentFwd, sf[i])
		emit(spanStudentBwd, sb[i])
	}
	emit(spanUpdate, update)
	return spans
}

// TestBlockBusyFoldsTriples: per-block busy is the compute triple plus an
// equal share of the update span.
func TestBlockBusyFoldsTriples(t *testing.T) {
	got := BlockBusy(computeBatch([]int64{100, 200}, []int64{10, 20}, []int64{30, 40}, 20))
	// busy[i] = tf+sf+sb + update/nb: [100+10+30+10, 200+20+40+10].
	if want := []float64{150, 270}; !slices.Equal(got, want) {
		t.Fatalf("BlockBusy = %v, want %v", got, want)
	}
}

// TestBlockBusyIgnoresIncompleteBatches: wait-only flushes and torn
// triples measure no block — transport stalls land in waits and must not
// dilute the compute signal.
func TestBlockBusyIgnoresIncompleteBatches(t *testing.T) {
	for _, spans := range [][]Span{
		{{Name: "recv_wait", Start: 0, Dur: 1000}},
		{{Name: spanTeacherFwd, Start: 0, Dur: 50}},
		nil,
	} {
		if got := BlockBusy(spans); got != nil {
			t.Fatalf("BlockBusy(%v) = %v, want nil", spans, got)
		}
	}
}
