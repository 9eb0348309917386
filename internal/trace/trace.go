// Package trace renders timelines as ASCII Gantt charts — the textual
// equivalent of the paper's schedule illustrations (Fig. 3 and Fig.
// 5b/5c). It draws obs.Spans, so a simulated schedule (sim.Spans) and a
// measured run (an obs.Collector, or a Chrome trace file read back by
// obs.ReadChromeTrace) render the same way: one row per track, each span
// filled with its category's character and overlaid with its name where
// space allows.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"pipebd/internal/obs"
)

// fills holds each category's fill character and legend name.
var fills = [obs.NumCategories]struct {
	char byte
	name string
}{
	obs.CatLoad:       {'L', "load"},
	obs.CatTeacherFwd: {'T', "teacher-fwd"},
	obs.CatStudentFwd: {'S', "student-fwd"},
	obs.CatStudentBwd: {'s', "student-bwd"},
	obs.CatUpdate:     {'U', "update"},
	obs.CatComm:       {'c', "relay"},
	obs.CatAllReduce:  {'A', "all-reduce"},
	obs.CatWait:       {'w', "wait"},
	obs.CatSnapshot:   {'P', "snapshot"},
	obs.CatLedger:     {'D', "ledger"},
}

// Gantt renders the tracks of byTrack named by order over a window given
// as fractions [from, to] of the timeline's extent — the earliest span's
// start to the latest span's end across those tracks — in the given
// character width. The time axis is relative to the extent's start. A
// span takes at least one column unless it has no duration at all (a
// measured ack wait that did not wait, a simulated task shorter than
// half a nanosecond); a nested span (a measured allreduce's
// reduce_scatter) draws over its parent. The legend lists the categories
// the simulator models plus any runtime-only category drawn.
func Gantt(order []string, byTrack map[string][]obs.Span, from, to float64, width int) string {
	width = max(width, 20)
	first, last := int64(math.MaxInt64), int64(math.MinInt64)
	nameW := 0
	for _, name := range order {
		nameW = max(nameW, len(name))
		for _, s := range byTrack[name] {
			first, last = min(first, s.Start), max(last, s.Start+s.Dur)
		}
	}
	if last <= first || to <= from {
		return "trace: empty time window\n"
	}
	extent := float64(last-first) / 1e9
	t0, t1 := extent*from, extent*to
	scale := float64(width) / (t1 - t0)
	var drawn [obs.NumCategories]bool

	var b strings.Builder
	fmt.Fprintf(&b, "%*s  %s\n", nameW, "", axis(t0, t1, width))
	for _, name := range order {
		row := []byte(strings.Repeat(".", width))
		spans := append([]obs.Span(nil), byTrack[name]...)
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].Start != spans[j].Start {
				return spans[i].Start < spans[j].Start
			}
			return spans[i].Dur > spans[j].Dur
		})
		for _, s := range spans {
			start, end := float64(s.Start-first)/1e9, float64(s.Start+s.Dur-first)/1e9
			if s.Dur <= 0 || end <= t0 || start >= t1 || s.Cat < 0 || s.Cat >= obs.NumCategories {
				continue
			}
			lo := int((max(start, t0) - t0) * scale)
			hi := min(max(int((min(end, t1)-t0)*scale), lo+1), width)
			for i := lo; i < hi; i++ {
				row[i] = fills[s.Cat].char
			}
			drawn[s.Cat] = true
			// Overlay the name when it fits inside the span.
			if s.Name != "" && hi-lo >= len(s.Name)+1 {
				copy(row[lo:], s.Name)
			}
		}
		fmt.Fprintf(&b, "%*s  %s\n", nameW, name, row)
	}
	b.WriteString("legend:")
	for c, f := range fills {
		if obs.Category(c) < obs.CatWait || drawn[c] {
			fmt.Fprintf(&b, " %c=%s", f.char, f.name)
		}
	}
	b.WriteString(" .=idle\n")
	return b.String()
}

func axis(t0, t1 float64, width int) string {
	left := fmt.Sprintf("%.1fms", t0*1e3)
	right := fmt.Sprintf("%.1fms", t1*1e3)
	return left + strings.Repeat(" ", max(width-len(left)-len(right), 1)) + right
}
