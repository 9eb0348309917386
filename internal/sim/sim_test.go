package sim

import (
	"testing"
	"testing/quick"
)

func TestExecSerializes(t *testing.T) {
	tr := NewTrack("gpu0", false)
	s1, e1 := tr.Exec(0, 5, CatTeacherFwd, "")
	if s1 != 0 || e1 != 5 {
		t.Fatalf("first task [%v,%v], want [0,5]", s1, e1)
	}
	// Ready earlier than free time: must queue behind previous task.
	s2, e2 := tr.Exec(1, 3, CatStudentFwd, "")
	if s2 != 5 || e2 != 8 {
		t.Fatalf("second task [%v,%v], want [5,8]", s2, e2)
	}
	// Ready later than free time: must wait for readiness (idle gap).
	s3, _ := tr.Exec(20, 1, CatStudentBwd, "")
	if s3 != 20 {
		t.Fatalf("third task starts at %v, want 20", s3)
	}
}

func TestExecZeroDuration(t *testing.T) {
	tr := NewTrack("t", true)
	tr.Exec(0, 0, CatUpdate, "")
	if tr.FreeAt() != 0 {
		t.Fatal("zero-duration task must not advance time")
	}
	if len(tr.Intervals()) != 0 {
		t.Fatal("zero-duration tasks are not recorded")
	}
}

func TestExecNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTrack("t", false).Exec(0, -1, CatLoad, "")
}

func TestBusyAccounting(t *testing.T) {
	tr := NewTrack("t", false)
	tr.Exec(0, 2, CatLoad, "")
	tr.Exec(0, 3, CatLoad, "")
	tr.Exec(0, 5, CatTeacherFwd, "")
	if tr.Busy(CatLoad) != 5 {
		t.Fatalf("load busy = %v, want 5", tr.Busy(CatLoad))
	}
	if tr.TotalBusy() != 10 {
		t.Fatalf("total busy = %v, want 10", tr.TotalBusy())
	}
}

func TestAdvanceToNeverRewinds(t *testing.T) {
	tr := NewTrack("t", false)
	tr.Exec(0, 10, CatUpdate, "")
	tr.AdvanceTo(5)
	if tr.FreeAt() != 10 {
		t.Fatal("AdvanceTo must not rewind")
	}
	tr.AdvanceTo(15)
	if tr.FreeAt() != 15 {
		t.Fatal("AdvanceTo must advance")
	}
}

func TestIntervalRecording(t *testing.T) {
	tr := NewTrack("t", true)
	tr.Exec(0, 1, CatTeacherFwd, "T0")
	tr.Exec(0, 2, CatStudentFwd, "S0")
	iv := tr.Intervals()
	if len(iv) != 2 {
		t.Fatalf("got %d intervals, want 2", len(iv))
	}
	if iv[0].Label != "T0" || iv[1].Cat != CatStudentFwd {
		t.Fatalf("bad intervals %+v", iv)
	}
	if iv[1].Start != 1 || iv[1].End != 3 {
		t.Fatalf("second interval [%v,%v], want [1,3]", iv[1].Start, iv[1].End)
	}
}

// Property: regardless of ready times and durations, intervals on a track
// never overlap and are monotonically ordered.
func TestNoOverlapProperty(t *testing.T) {
	f := func(readies []float64, durs []float64) bool {
		tr := NewTrack("t", true)
		n := len(readies)
		if len(durs) < n {
			n = len(durs)
		}
		for i := 0; i < n; i++ {
			r, d := readies[i], durs[i]
			if r < 0 {
				r = -r
			}
			if d < 0 {
				d = -d
			}
			// Clamp to keep arithmetic finite.
			if r > 1e12 {
				r = 1e12
			}
			if d > 1e12 {
				d = 1e12
			}
			tr.Exec(r, d, CatLoad, "")
		}
		iv := tr.Intervals()
		for i := 1; i < len(iv); i++ {
			if iv[i].Start < iv[i-1].End {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCategoryStrings(t *testing.T) {
	seen := map[string]bool{}
	for c := Category(0); int(c) < NumCategories; c++ {
		s := c.String()
		if s == "" || seen[s] {
			t.Fatalf("category %d: empty or duplicate name %q", int(c), s)
		}
		seen[s] = true
	}
}

func TestMaxHelpers(t *testing.T) {
	if Max(1, 2) != 2 || Max(3, 2) != 3 {
		t.Fatal("Max broken")
	}
}
