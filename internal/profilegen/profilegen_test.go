package profilegen

import (
	"testing"

	"pipebd/internal/hw"
	"pipebd/internal/model"
)

func measureNAS(t *testing.T) Profile {
	t.Helper()
	return Measure(model.NAS(false), hw.RTXA6000(), 256, 4, 10)
}

func TestMeasureShape(t *testing.T) {
	p := measureNAS(t)
	if p.NumBlocks() != 6 {
		t.Fatalf("blocks = %d, want 6", p.NumBlocks())
	}
	for b := 0; b < p.NumBlocks(); b++ {
		if len(p.TeacherFwd[b]) != 4 || len(p.StudentFwd[b]) != 4 || len(p.StudentBwd[b]) != 4 {
			t.Fatalf("block %d: wrong split dimension", b)
		}
		for s := 0; s < 4; s++ {
			if p.TeacherFwd[b][s] <= 0 || p.StudentFwd[b][s] <= 0 || p.StudentBwd[b][s] <= 0 {
				t.Fatalf("block %d split %d: non-positive time", b, s)
			}
			if p.TeacherMem[b][s] <= 0 || p.StudentMem[b][s] <= 0 {
				t.Fatalf("block %d split %d: non-positive memory", b, s)
			}
		}
		if p.Update[b] <= 0 || p.StudentParamBytes[b] <= 0 {
			t.Fatalf("block %d: missing update/params", b)
		}
		if p.TeacherOutBytesPerSample[b] <= 0 || p.TeacherInBytesPerSample[b] <= 0 {
			t.Fatalf("block %d: missing activation sizes", b)
		}
	}
}

func TestSplitShrinksPerStepTime(t *testing.T) {
	p := measureNAS(t)
	for b := 0; b < p.NumBlocks(); b++ {
		for s := 1; s < 4; s++ {
			if p.StepTime(b, s+1) >= p.StepTime(b, s) {
				t.Fatalf("block %d: step time did not shrink from split %d to %d", b, s, s+1)
			}
		}
	}
}

func TestSplitIsSubLinear(t *testing.T) {
	// Halving the batch must not halve the time (launch overhead and
	// occupancy loss) — the cost AHD weighs against balance gains.
	p := measureNAS(t)
	for b := 0; b < p.NumBlocks(); b++ {
		if p.StepTime(b, 2) <= p.StepTime(b, 1)/2 {
			t.Fatalf("block %d: splitting is implausibly free", b)
		}
	}
}

func TestMemoryShrinksWithSplit(t *testing.T) {
	p := measureNAS(t)
	for b := 0; b < p.NumBlocks(); b++ {
		if p.StudentMem[b][3] >= p.StudentMem[b][0] {
			t.Fatalf("block %d: student memory should shrink with split", b)
		}
	}
}

func TestStepsDefaultAndDeterminism(t *testing.T) {
	w := model.NAS(false)
	a := Measure(w, hw.RTXA6000(), 256, 4, 0) // 0 -> default 100 steps
	b := Measure(w, hw.RTXA6000(), 256, 4, 7)
	// The analytic model is deterministic: averaging over any number of
	// steps yields identical values.
	for blk := 0; blk < a.NumBlocks(); blk++ {
		for s := 0; s < 4; s++ {
			if a.TeacherFwd[blk][s] != b.TeacherFwd[blk][s] {
				t.Fatalf("profiling not deterministic at block %d split %d", blk, s)
			}
		}
	}
}

func TestMeasurePanicsOnBadArgs(t *testing.T) {
	w := model.NAS(false)
	for name, f := range map[string]func(){
		"zero batch": func() { Measure(w, hw.RTXA6000(), 0, 4, 10) },
		"zero split": func() { Measure(w, hw.RTXA6000(), 256, 0, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestImageNetBlockZeroDominatesProfile(t *testing.T) {
	// The profiled table must reflect the Fig. 5 observation that
	// block 0's execution time is the longest among the six blocks.
	p := Measure(model.NAS(true), hw.RTXA6000(), 256, 4, 10)
	b0 := p.StepTime(0, 1)
	for b := 1; b < p.NumBlocks(); b++ {
		if p.StepTime(b, 1) >= b0 {
			t.Fatalf("block %d step time %v >= block 0's %v", b, p.StepTime(b, 1), b0)
		}
	}
}
