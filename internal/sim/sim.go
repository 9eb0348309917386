// Package sim provides the deterministic virtual-time simulator that the
// pipeline executors run on. Because every schedule simulated in this
// project is a static dataflow (task durations come from the analytic
// cost model and precedences from the schedule itself), simulation
// reduces to a resource-constrained forward sweep: each task starts at
// the maximum of its resource's free time and its dependencies' finish
// times. Tracks are serial resources (a GPU's compute queue, a per-device
// copy engine, the host's shared loader) that additionally record
// categorized busy intervals for breakdown reporting (the paper's Fig. 2)
// and Gantt rendering (Fig. 5b/5c).
package sim

import "fmt"

// Category classifies busy time on a track, matching the breakdown the
// paper reports in Fig. 2 plus the communication classes.
type Category int

// Track busy-time categories.
const (
	CatLoad       Category = iota // data loading (host loader)
	CatTeacherFwd                 // teacher block forward
	CatStudentFwd                 // student block forward
	CatStudentBwd                 // student block backward
	CatUpdate                     // optimizer step
	CatComm                       // activation relay transfer
	CatAllReduce                  // gradient all-reduce
	numCategories
)

// String returns the category's display name.
func (c Category) String() string {
	switch c {
	case CatLoad:
		return "load"
	case CatTeacherFwd:
		return "teacher_fwd"
	case CatStudentFwd:
		return "student_fwd"
	case CatStudentBwd:
		return "student_bwd"
	case CatUpdate:
		return "update"
	case CatComm:
		return "comm"
	case CatAllReduce:
		return "allreduce"
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// NumCategories is the number of distinct categories.
const NumCategories = int(numCategories)

// Interval is one busy span on a track.
type Interval struct {
	Start, End float64
	Cat        Category
	Label      string // optional short label ("T0", "S2", ...) for Gantt rendering
}

// Track is a serial resource in virtual time.
type Track struct {
	Name      string
	freeAt    float64
	busy      [numCategories]float64
	intervals []Interval
	record    bool
}

// NewTrack returns an empty track. record enables interval retention for
// Gantt rendering; busy-time accounting is always on.
func NewTrack(name string, record bool) *Track {
	return &Track{Name: name, record: record}
}

// Exec schedules a task of duration dur that may not start before ready,
// serialized after all previously scheduled work on this track. It
// returns the task's start and end times. Zero-duration tasks advance
// nothing but still respect ordering.
func (t *Track) Exec(ready, dur float64, cat Category, label string) (start, end float64) {
	if dur < 0 {
		panic(fmt.Sprintf("sim: negative duration %v on track %s", dur, t.Name))
	}
	start = t.freeAt
	if ready > start {
		start = ready
	}
	end = start + dur
	t.freeAt = end
	t.busy[cat] += dur
	if t.record && dur > 0 {
		t.intervals = append(t.intervals, Interval{Start: start, End: end, Cat: cat, Label: label})
	}
	return start, end
}

// FreeAt returns the time at which the track becomes free.
func (t *Track) FreeAt() float64 { return t.freeAt }

// AdvanceTo moves the track's free time forward to at least tm (an
// explicit stall, e.g. a barrier). It never moves time backwards.
func (t *Track) AdvanceTo(tm float64) {
	if tm > t.freeAt {
		t.freeAt = tm
	}
}

// Busy returns the accumulated busy time in the given category.
func (t *Track) Busy(cat Category) float64 { return t.busy[cat] }

// TotalBusy returns the busy time summed over all categories.
func (t *Track) TotalBusy() float64 {
	var s float64
	for _, b := range t.busy {
		s += b
	}
	return s
}

// Intervals returns recorded intervals (empty unless recording enabled).
func (t *Track) Intervals() []Interval { return t.intervals }

// Max returns the larger of two times — a barrier helper.
func Max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
