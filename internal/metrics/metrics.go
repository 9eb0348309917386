// Package metrics defines the result types of a run, simulated or
// measured: per-rank time breakdowns (the paper's Fig. 2), per-rank peak
// memory (Fig. 7), epoch times (Table II), speedup helpers (Figs. 4-6),
// and the measured-vs-modelled utilization report that compares a traced
// run with the simulator's prediction of the same schedule.
package metrics

import (
	"fmt"
	"strings"

	"pipebd/internal/obs"
)

// RankStats aggregates one device's epoch activity.
type RankStats struct {
	// Track names the device's timeline ("gpu0" simulated, "dev0"
	// measured).
	Track string
	// Busy holds busy seconds by category. The simulator accounts waiting
	// for data or relayed activations as CatLoad / CatComm pseudo-busy
	// time; a measured rank's blocked time is CatWait, which is idle.
	Busy [obs.NumCategories]float64
	// Idle is unattributed waiting (barriers, pipeline bubbles), so that
	// TotalBusy + Idle spans the epoch.
	Idle float64
	// PeakMemBytes is the estimated peak device memory.
	PeakMemBytes int64
}

// TotalBusy returns the rank's busy time over every category but
// CatWait.
func (r RankStats) TotalBusy() float64 {
	var s float64
	for c, b := range r.Busy {
		if obs.Category(c) != obs.CatWait {
			s += b
		}
	}
	return s
}

// Report is the outcome of one run under a schedule: a simulated
// training epoch (pipeline.Run) or a traced run (Measured).
type Report struct {
	Strategy    string
	Workload    string
	System      string
	GlobalBatch int
	Steps       int
	// EpochTime is the run's wall-clock: simulated for one epoch, or
	// measured from the earliest span's start to the latest span's end.
	EpochTime float64
	Ranks     []RankStats
	// ScheduleDesc is a human-readable schedule summary, e.g.
	// "dev0-2: B0-B2 (3-way DP) | dev3: B3-B5".
	ScheduleDesc string
}

// FigTwoBreakdown collapses the per-rank accounting into the four bars of
// the paper's Fig. 2, averaged across ranks: data loading, teacher
// execution, student execution (forward+backward+update+gradient
// sharing), and idle (including exposed relay waits).
func (r Report) FigTwoBreakdown() (load, teacher, student, idle float64) {
	n := float64(len(r.Ranks))
	for _, rank := range r.Ranks {
		load += rank.Busy[obs.CatLoad]
		teacher += rank.Busy[obs.CatTeacherFwd]
		student += rank.Busy[obs.CatStudentFwd] + rank.Busy[obs.CatStudentBwd] +
			rank.Busy[obs.CatUpdate] + rank.Busy[obs.CatAllReduce]
		idle += rank.Idle + rank.Busy[obs.CatComm]
	}
	return load / n, teacher / n, student / n, idle / n
}

// Speedup returns base.EpochTime / r.EpochTime: how much faster r is than
// the baseline.
func (r Report) Speedup(base Report) float64 {
	if r.EpochTime <= 0 {
		return 0
	}
	return base.EpochTime / r.EpochTime
}

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("%s/%s batch=%d steps=%d epoch=%.3fs",
		r.Strategy, r.Workload, r.GlobalBatch, r.Steps, r.EpochTime)
}

// FormatSeconds renders a duration the way the paper's Table II does:
// "31.52s." under a minute, "62m 21s." above.
func FormatSeconds(s float64) string {
	if s < 60 {
		return fmt.Sprintf("%.2fs.", s)
	}
	m := int(s) / 60
	sec := s - float64(m*60)
	return fmt.Sprintf("%dm %02.0fs.", m, sec)
}

// Table renders rows of label/value pairs with aligned columns — shared
// by the experiment drivers' text output.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
