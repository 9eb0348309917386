package sim

import (
	"testing"
	"testing/quick"

	"pipebd/internal/obs"
)

func TestExecSerializes(t *testing.T) {
	tr := NewTrack("gpu0", false)
	s1, e1 := tr.Exec(0, 5, obs.CatTeacherFwd, "")
	if s1 != 0 || e1 != 5 {
		t.Fatalf("first task [%v,%v], want [0,5]", s1, e1)
	}
	// Ready earlier than free time: must queue behind previous task.
	s2, e2 := tr.Exec(1, 3, obs.CatStudentFwd, "")
	if s2 != 5 || e2 != 8 {
		t.Fatalf("second task [%v,%v], want [5,8]", s2, e2)
	}
	// Ready later than free time: must wait for readiness (idle gap).
	s3, _ := tr.Exec(20, 1, obs.CatStudentBwd, "")
	if s3 != 20 {
		t.Fatalf("third task starts at %v, want 20", s3)
	}
}

func TestExecZeroDuration(t *testing.T) {
	tr := NewTrack("t", true)
	tr.Exec(0, 0, obs.CatUpdate, "")
	if tr.FreeAt() != 0 {
		t.Fatal("zero-duration task must not advance time")
	}
	if _, byTrack := Spans([]*Track{tr}); len(byTrack["t"]) != 0 {
		t.Fatal("zero-duration tasks are not recorded")
	}
}

func TestExecNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTrack("t", false).Exec(0, -1, obs.CatLoad, "")
}

func TestBusyAccounting(t *testing.T) {
	tr := NewTrack("t", false)
	tr.Exec(0, 2, obs.CatLoad, "")
	tr.Exec(0, 3, obs.CatLoad, "")
	tr.Exec(0, 5, obs.CatTeacherFwd, "")
	if tr.Busy(obs.CatLoad) != 5 || tr.Busy(obs.CatTeacherFwd) != 5 {
		t.Fatalf("load busy = %v, teacher busy = %v, want 5 and 5", tr.Busy(obs.CatLoad), tr.Busy(obs.CatTeacherFwd))
	}
	if _, byTrack := Spans([]*Track{tr}); byTrack["t"] != nil {
		t.Fatal("a track created without record kept spans")
	}
}

// TestCategoryStrings: every category a track accounts has its own busy
// total and a distinct printable name, which the breakdown tables key on.
func TestCategoryStrings(t *testing.T) {
	tr := NewTrack("t", false)
	seen := map[string]bool{}
	for c := obs.Category(0); c < obs.NumCategories; c++ {
		tr.Exec(0, float64(c+1), c, "")
		if got := tr.Busy(c); got != float64(c+1) {
			t.Fatalf("category %d: busy %v, want %v", int(c), got, float64(c+1))
		}
		s := c.String()
		if s == "" || seen[s] {
			t.Fatalf("category %d: empty or duplicate name %q", int(c), s)
		}
		seen[s] = true
	}
}

func TestAdvanceToNeverRewinds(t *testing.T) {
	tr := NewTrack("t", false)
	tr.Exec(0, 10, obs.CatUpdate, "")
	tr.AdvanceTo(5)
	if tr.FreeAt() != 10 {
		t.Fatal("AdvanceTo must not rewind")
	}
	tr.AdvanceTo(15)
	if tr.FreeAt() != 15 {
		t.Fatal("AdvanceTo must advance")
	}
}

// TestIntervalRecording: a recorded task is an obs.Span in virtual
// nanoseconds, labelled and categorised as executed, and Spans keys the
// tracks by name in the order given.
func TestIntervalRecording(t *testing.T) {
	a, b := NewTrack("a", true), NewTrack("b", true)
	a.Exec(0, 1e-3, obs.CatTeacherFwd, "T0")
	a.Exec(0, 2e-3, obs.CatStudentFwd, "S0")
	b.Exec(5e-3, 1e-3, obs.CatComm, "RX")
	order, byTrack := Spans([]*Track{b, a})
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order = %v, want [b a]", order)
	}
	iv := byTrack["a"]
	if len(iv) != 2 {
		t.Fatalf("got %d spans, want 2", len(iv))
	}
	want := obs.Span{Name: "S0", Cat: obs.CatStudentFwd, Start: 1e6, Dur: 2e6}
	if iv[0].Name != "T0" || iv[1] != want {
		t.Fatalf("spans %+v, want T0 then %+v", iv, want)
	}
	if got := byTrack["b"]; len(got) != 1 || got[0].Start != 5e6 || got[0].Cat != obs.CatComm {
		t.Fatalf("track b spans %+v", got)
	}
}

// Property: regardless of ready times and durations, spans on a track
// never overlap and are monotonically ordered, nanosecond rounding
// included.
func TestNoOverlapProperty(t *testing.T) {
	f := func(readies []float64, durs []float64) bool {
		tr := NewTrack("t", true)
		n := min(len(readies), len(durs))
		for i := 0; i < n; i++ {
			// Clamp to keep arithmetic finite.
			r, d := min(abs(readies[i]), 1e6), min(abs(durs[i]), 1e6)
			tr.Exec(r, d, obs.CatLoad, "")
		}
		_, byTrack := Spans([]*Track{tr})
		iv := byTrack["t"]
		for i := 1; i < len(iv); i++ {
			if iv[i].Start < iv[i-1].Start+iv[i-1].Dur {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 { return max(x, -x) }
