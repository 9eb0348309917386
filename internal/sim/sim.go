// Package sim provides the deterministic virtual-time simulator that the
// pipeline executors run on. Because every schedule simulated in this
// project is a static dataflow (task durations come from the analytic
// cost model and precedences from the schedule itself), simulation
// reduces to a resource-constrained forward sweep: each task starts at
// the maximum of its resource's free time and its dependencies' finish
// times. Tracks are serial resources (a GPU's compute queue, a per-device
// copy engine, the host's shared loader) that sum busy time by
// obs.Category for breakdown reporting (the paper's Fig. 2) and, when
// recording, keep each task as an obs.Span — the span a real run's tracer
// records — for the Gantt charts of Fig. 5b/5c and Chrome trace export.
package sim

import (
	"fmt"
	"math"

	"pipebd/internal/obs"
)

// Track is a serial resource in virtual time.
type Track struct {
	Name   string
	freeAt float64
	busy   [obs.NumCategories]float64
	spans  []obs.Span
	record bool
}

// NewTrack returns an empty track. record enables span retention for
// Gantt rendering; busy-time accounting is always on.
func NewTrack(name string, record bool) *Track {
	return &Track{Name: name, record: record}
}

// Exec schedules a task of duration dur that may not start before ready,
// serialized after all previously scheduled work on this track. It
// returns the task's start and end times. Zero-duration tasks advance
// nothing but still respect ordering. A recorded task becomes a span
// named label ("T0", "S2", ...) whose ends are rounded to the nanosecond,
// so consecutive tasks stay back to back.
func (t *Track) Exec(ready, dur float64, cat obs.Category, label string) (start, end float64) {
	if dur < 0 {
		panic(fmt.Sprintf("sim: negative duration %v on track %s", dur, t.Name))
	}
	start = max(t.freeAt, ready)
	end = start + dur
	t.freeAt = end
	t.busy[cat] += dur
	if t.record && dur > 0 {
		ns := func(s float64) int64 { return int64(math.Round(s * 1e9)) }
		t.spans = append(t.spans, obs.Span{Name: label, Cat: cat, Start: ns(start), Dur: ns(end) - ns(start)})
	}
	return start, end
}

// FreeAt returns the time at which the track becomes free.
func (t *Track) FreeAt() float64 { return t.freeAt }

// AdvanceTo moves the track's free time forward to at least tm (an
// explicit stall, e.g. a barrier). It never moves time backwards.
func (t *Track) AdvanceTo(tm float64) {
	t.freeAt = max(t.freeAt, tm)
}

// Busy returns the accumulated busy time in the given category.
func (t *Track) Busy(cat obs.Category) float64 { return t.busy[cat] }

// Spans returns the tracks' recorded spans keyed by track name, with the
// names in the given order — the shape trace.Gantt and
// obs.WriteChromeTrace take. Tracks recorded nothing unless created with
// record set.
func Spans(tracks []*Track) (order []string, byTrack map[string][]obs.Span) {
	byTrack = make(map[string][]obs.Span, len(tracks))
	for _, t := range tracks {
		order = append(order, t.Name)
		byTrack[t.Name] = t.spans
	}
	return order, byTrack
}
