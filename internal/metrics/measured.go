package metrics

import (
	"fmt"
	"math"
	"strings"

	"pipebd/internal/obs"
)

// Measured turns a traced run's spans into a Report: one rank per track
// of order present in byTrack, with each category's self time
// (obs.SelfTimes) as Busy and the rest of the epoch as Idle. The epoch
// runs from the earliest span's start to the latest span's end across
// those tracks.
func Measured(order []string, byTrack map[string][]obs.Span) Report {
	var rep Report
	first, last := int64(math.MaxInt64), int64(math.MinInt64)
	for _, name := range order {
		spans, ok := byTrack[name]
		if !ok {
			continue
		}
		rank := RankStats{Track: name}
		for c, ns := range obs.SelfTimes(spans) {
			rank.Busy[c] = float64(ns) / 1e9
		}
		rep.Ranks = append(rep.Ranks, rank)
		for _, s := range spans {
			first, last = min(first, s.Start), max(last, s.Start+s.Dur)
		}
	}
	if last > first {
		rep.EpochTime = float64(last-first) / 1e9
	}
	for i := range rep.Ranks {
		rep.Ranks[i].Idle = max(0, rep.EpochTime-rep.Ranks[i].TotalBusy())
	}
	return rep
}

// UtilizationReport renders a measured run's per-rank breakdown — self
// seconds in every category, busy and idle shares of the epoch — and,
// when a modelled report is supplied, a side-by-side comparison of the
// shares. The measured run executes float32 kernels on CPU while the
// model predicts GPU schedules, so absolute seconds are incomparable but
// the schedule's shape (who waits, and how much) is. The model-error
// columns are measured − modelled in percentage points.
func UtilizationReport(measured Report, modeled *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "measured utilization (epoch %s, %d ranks)\n",
		FormatSeconds(measured.EpochTime), len(measured.Ranks))
	header := []string{"rank"}
	for c := obs.Category(0); c < obs.NumCategories; c++ {
		header = append(header, c.String())
	}
	header = append(header, "busy%", "idle%")
	var rows [][]string
	for _, r := range measured.Ranks {
		row := []string{r.Track}
		for _, s := range r.Busy {
			row = append(row, fmt.Sprintf("%.4f", s))
		}
		busy, idle := measured.shares(r)
		rows = append(rows, append(row, pct(busy), pct(idle)))
	}
	b.WriteString(Table(header, rows))
	if modeled == nil {
		return b.String()
	}
	fmt.Fprintf(&b, "\nmeasured vs modeled (%s, modeled epoch %s)\n",
		modeled.Strategy, FormatSeconds(modeled.EpochTime))
	header = []string{"rank", "meas busy%", "model busy%", "err(pp)", "meas idle%", "model idle%", "err(pp)"}
	rows = nil
	for i := range min(len(measured.Ranks), len(modeled.Ranks)) {
		mb, mi := measured.shares(measured.Ranks[i])
		pb, pi := modeled.shares(modeled.Ranks[i])
		rows = append(rows, []string{measured.Ranks[i].Track,
			pct(mb), pct(pb), fmt.Sprintf("%+.1f", (mb-pb)*100),
			pct(mi), pct(pi), fmt.Sprintf("%+.1f", (mi-pi)*100)})
	}
	b.WriteString(Table(header, rows))
	if len(measured.Ranks) != len(modeled.Ranks) {
		fmt.Fprintf(&b, "(rank count mismatch: %d measured, %d modeled)\n",
			len(measured.Ranks), len(modeled.Ranks))
	}
	return b.String()
}

// shares returns a rank's busy and idle time as fractions of r's epoch.
func (r Report) shares(rank RankStats) (busy, idle float64) {
	if r.EpochTime <= 0 {
		return 0, 0
	}
	return rank.TotalBusy() / r.EpochTime, rank.Idle / r.EpochTime
}

func pct(share float64) string { return fmt.Sprintf("%.1f", share*100) }
