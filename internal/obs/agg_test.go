package obs

import "testing"

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

// TestStepAggregatorFoldsTriples: per-block busy is the compute triple
// plus an equal share of the update span, and repeated batches average.
func TestStepAggregatorFoldsTriples(t *testing.T) {
	agg := NewStepAggregator()
	batch := computeBatch([]int64{100, 200}, []int64{10, 20}, []int64{30, 40}, 20)
	agg.Add("dev0", batch)
	agg.Add("dev0", batch)

	st, ok := agg.Stats()["dev0"]
	if !ok {
		t.Fatal("no stats for dev0")
	}
	if st.Steps != 2 {
		t.Fatalf("Steps = %d, want 2", st.Steps)
	}
	// busy[i] = tf+sf+sb + update/nb: [100+10+30+10, 200+20+40+10].
	want := []float64{150, 270}
	if len(st.BlockBusy) != len(want) {
		t.Fatalf("BlockBusy = %v, want %v", st.BlockBusy, want)
	}
	for i, w := range want {
		if st.BlockBusy[i] != w {
			t.Fatalf("BlockBusy[%d] = %v, want %v", i, st.BlockBusy[i], w)
		}
	}
}

// TestStepAggregatorIgnoresIncompleteBatches: wait-only flushes (no
// complete compute triple) must not count as measured steps — transport
// stalls land in waits and must not dilute the compute signal.
func TestStepAggregatorIgnoresIncompleteBatches(t *testing.T) {
	agg := NewStepAggregator()
	agg.Add("dev0", computeBatch([]int64{50}, []int64{5}, []int64{5}, 10))
	agg.Add("dev0", []Span{{Name: "recv_wait", Start: 0, Dur: 1000}})
	agg.Add("dev0", []Span{{Name: spanTeacherFwd, Start: 0, Dur: 50}}) // torn triple
	if st := agg.Stats()["dev0"]; st.Steps != 1 {
		t.Fatalf("Steps = %d after incomplete batches, want 1", st.Steps)
	}
}

// TestStepAggregatorResetsOnBlockCountChange: when a device's hosted
// block set changes (a repartition moved a boundary), old measurements
// describe a placement that no longer exists and must be discarded.
func TestStepAggregatorResetsOnBlockCountChange(t *testing.T) {
	agg := NewStepAggregator()
	agg.Add("dev0", computeBatch([]int64{100, 200}, []int64{10, 20}, []int64{30, 40}, 20))
	agg.Add("dev0", computeBatch([]int64{60}, []int64{5}, []int64{5}, 10))
	st := agg.Stats()["dev0"]
	if st.Steps != 1 || len(st.BlockBusy) != 1 {
		t.Fatalf("stats after shape change = %+v, want a fresh single-block accumulation", st)
	}
	if st.BlockBusy[0] != 80 {
		t.Fatalf("BlockBusy[0] = %v, want 80", st.BlockBusy[0])
	}
}

// TestStepAggregatorReset: Reset drops every device — the controller
// calls it at each attempt start so stale generations never leak in.
func TestStepAggregatorReset(t *testing.T) {
	agg := NewStepAggregator()
	agg.Add("dev0", computeBatch([]int64{10}, []int64{1}, []int64{1}, 2))
	agg.Add("dev1", computeBatch([]int64{10}, []int64{1}, []int64{1}, 2))
	agg.Reset()
	if n := len(agg.Stats()); n != 0 {
		t.Fatalf("%d devices survived Reset, want 0", n)
	}
}

// TestStepAggregatorStatsAreCopies: mutating a returned snapshot must
// not corrupt the accumulator the controller keeps reading.
func TestStepAggregatorStatsAreCopies(t *testing.T) {
	agg := NewStepAggregator()
	agg.Add("dev0", computeBatch([]int64{10}, []int64{1}, []int64{1}, 2))
	agg.Stats()["dev0"].BlockBusy[0] = -1
	if got := agg.Stats()["dev0"].BlockBusy[0]; got < 0 {
		t.Fatalf("snapshot mutation reached the accumulator: %v", got)
	}
}
