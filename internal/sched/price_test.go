package sched

import (
	"testing"

	"pipebd/internal/hw"
	"pipebd/internal/model"
)

// split returns block b alone on the first k devices as a relayed stage,
// the batch apportioned among them.
func split(w model.Workload, sys hw.System, batch, b, k int) Stage {
	g := Group{Devices: seq(0, k), Blocks: []int{b}}
	g.Shares = apportion(w, sys, batch, g)
	return Stage{Group: g, Relayed: true}
}

// slowestStep returns the slowest member's kernel time for one step of st.
func slowestStep(t *testing.T, w model.Workload, sys hw.System, batch int, st Stage) float64 {
	t.Helper()
	members, err := Price(w, sys, batch, st)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for _, m := range members {
		worst = max(worst, m.Compute())
	}
	return worst
}

func TestPriceShape(t *testing.T) {
	// A loader-fed stage on blocks 2-3 runs teacher blocks 0-1 first and
	// trains nothing of them; a relayed one starts at its own blocks.
	w, sys := model.NAS(false), hw.A6000x4()
	st := Stage{Group: Group{Devices: []int{1, 2}, Blocks: []int{2, 3}}}
	for _, relayed := range []bool{false, true} {
		st.Relayed = relayed
		members, err := Price(w, sys, 256, st)
		if err != nil {
			t.Fatal(err)
		}
		wantTeacher := 4
		if relayed {
			wantTeacher = 2
		}
		for j, m := range members {
			if m.Device != st.Devices[j] || m.Batch != 128 {
				t.Fatalf("member %d is device %d at batch %d", j, m.Device, m.Batch)
			}
			if len(m.TeacherFwd) != wantTeacher || len(m.StudentFwd) != 2 || len(m.StudentBwd) != 2 {
				t.Fatalf("relayed=%v: %d teacher, %d student forward, %d backward entries",
					relayed, len(m.TeacherFwd), len(m.StudentFwd), len(m.StudentBwd))
			}
			for _, v := range append(append(append([]float64{m.Update}, m.TeacherFwd...), m.StudentFwd...), m.StudentBwd...) {
				if v <= 0 {
					t.Fatalf("non-positive entry in %+v", m)
				}
			}
			if m.Step() != m.Teacher()+m.Student()+m.ExposedAllReduce+m.Update {
				t.Fatal("a step is teacher, student, exposed all-reduce and update")
			}
		}
	}
	if alone, _ := Price(w, sys, 256, Stage{Group: Group{Devices: []int{0}, Blocks: []int{0}}}); alone[0].ExposedAllReduce != 0 {
		t.Fatal("an unsplit stage all-reduces nothing")
	}
}

func TestPriceRejectsDroppedSamples(t *testing.T) {
	// 256/3 truncates to 85: an equal 3-way split would play 255 samples
	// a step. Pricing it is an error; shares that cover the batch are not.
	w, sys := model.NAS(false), hw.A6000x4()
	st := Stage{Group: Group{Devices: []int{0, 1, 2}, Blocks: []int{0}}}
	if _, err := Price(w, sys, 256, st); err == nil {
		t.Fatal("an equal 3-way split of 256 must not be priced")
	}
	st.Shares = []int{86, 85, 84}
	if _, err := Price(w, sys, 256, st); err == nil {
		t.Fatal("shares summing to 255 must not be priced")
	}
	st.Shares = []int{86, 85, 85}
	members, err := Price(w, sys, 256, st)
	if err != nil {
		t.Fatal(err)
	}
	if played := members[0].Batch + members[1].Batch + members[2].Batch; played != 256 {
		t.Fatalf("the stage plays %d samples a step", played)
	}
}

func TestSplitShrinksPerStepTime(t *testing.T) {
	w, sys := model.NAS(false), hw.A6000x4()
	for b := 0; b < w.NumBlocks(); b++ {
		for k := 1; k < 4; k++ {
			if slowestStep(t, w, sys, 256, split(w, sys, 256, b, k+1)) >= slowestStep(t, w, sys, 256, split(w, sys, 256, b, k)) {
				t.Fatalf("block %d: step time did not shrink from split %d to %d", b, k, k+1)
			}
		}
	}
}

func TestSplitIsSubLinear(t *testing.T) {
	// Halving the batch must not halve the time (launch overhead and
	// occupancy loss) — the cost AHD weighs against balance gains.
	w, sys := model.NAS(false), hw.A6000x4()
	for b := 0; b < w.NumBlocks(); b++ {
		if slowestStep(t, w, sys, 256, split(w, sys, 256, b, 2)) <= slowestStep(t, w, sys, 256, split(w, sys, 256, b, 1))/2 {
			t.Fatalf("block %d: splitting is implausibly free", b)
		}
	}
}

func TestMemoryShrinksWithSplit(t *testing.T) {
	w := model.NAS(false)
	relay := TeacherRelaying(TRContiguous(w, hw.A6000x4(), 256), true)
	for si := range relay.Phases[0] {
		whole, quarter := Memory(w, relay.Model, relay.Phases[0], si, 256), Memory(w, relay.Model, relay.Phases[0], si, 64)
		if quarter <= 0 || quarter >= whole {
			t.Fatalf("stage %d holds %d B at batch 64 and %d B at 256", si, quarter, whole)
		}
	}
}

func TestImageNetBlockZeroDominatesPrice(t *testing.T) {
	// The price must reflect the Fig. 5 observation that block 0's
	// execution time is the longest among the six blocks.
	w, sys := model.NAS(true), hw.A6000x4()
	b0 := slowestStep(t, w, sys, 256, split(w, sys, 256, 0, 1))
	for b := 1; b < w.NumBlocks(); b++ {
		if other := slowestStep(t, w, sys, 256, split(w, sys, 256, b, 1)); other >= b0 {
			t.Fatalf("block %d step time %v >= block 0's %v", b, other, b0)
		}
	}
}
