package obs

import (
	"fmt"
	"sort"
	"strings"

	"pipebd/internal/metrics"
	"pipebd/internal/sim"
)

// MeasuredRank is one track's measured per-category busy breakdown, in
// self-time seconds: a nested span (reduce_scatter inside allreduce,
// peer_ack_wait inside send_output) is attributed to its own category
// and subtracted from its parent, so the categories sum to wall time
// actually spent and nothing is double-counted.
type MeasuredRank struct {
	Track string
	Busy  [NumCategories]float64
}

// TotalBusy returns the rank's busy seconds over the sim compute/comm
// taxonomy — the part comparable to the simulator's RankStats. Runtime
// wait is idle by definition; snapshot and ledger time are runtime
// overheads the model doesn't predict, so they are excluded here too
// (they appear in their own columns of the breakdown table).
func (m MeasuredRank) TotalBusy() float64 {
	var s float64
	for c := 0; c < sim.NumCategories; c++ {
		s += m.Busy[c]
	}
	return s
}

// Measured aggregates collected spans into per-track self-time
// breakdowns plus the measured epoch: the wall-clock span from the
// earliest span start to the latest span end across the given tracks.
func Measured(order []string, byTrack map[string][]Span) ([]MeasuredRank, float64) {
	var ranks []MeasuredRank
	var minStart, maxEnd int64
	first := true
	for _, name := range order {
		spans, ok := byTrack[name]
		if !ok {
			continue
		}
		mr := MeasuredRank{Track: name}
		for c, ns := range selfTimes(spans) {
			mr.Busy[c] = float64(ns) / 1e9
		}
		ranks = append(ranks, mr)
		for _, s := range spans {
			if first || s.Start < minStart {
				minStart = s.Start
			}
			if first || s.Start+s.Dur > maxEnd {
				maxEnd = s.Start + s.Dur
			}
			first = false
		}
	}
	if first {
		return ranks, 0
	}
	return ranks, float64(maxEnd-minStart) / 1e9
}

// selfTimes computes per-category self time in nanoseconds: each span's
// duration minus its children's. Spans on one track come from a single
// goroutine, so they either nest or are disjoint; sorting by start
// (ties: longer span first) makes parents precede their children.
func selfTimes(spans []Span) [NumCategories]int64 {
	sorted := append([]Span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].Dur > sorted[j].Dur
	})
	var busy [NumCategories]int64
	type open struct {
		end  int64
		cat  sim.Category
		self int64
	}
	var stack []open
	flush := func(upTo int64) {
		for len(stack) > 0 && stack[len(stack)-1].end <= upTo {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if int(top.cat) >= 0 && int(top.cat) < NumCategories && top.self > 0 {
				busy[top.cat] += top.self
			}
		}
	}
	for _, s := range sorted {
		flush(s.Start)
		if len(stack) > 0 {
			stack[len(stack)-1].self -= s.Dur
		}
		stack = append(stack, open{end: s.Start + s.Dur, cat: s.Cat, self: s.Dur})
	}
	flush(int64(1)<<62 - 1)
	return busy
}

// BreakdownTable renders the measured per-rank breakdown: one row per
// track with self-time seconds for every category (including the
// runtime-only wait/snapshot/ledger columns) plus busy/idle fractions
// of the measured epoch.
func BreakdownTable(ranks []MeasuredRank, epoch float64) string {
	header := []string{"rank"}
	for c := 0; c < NumCategories; c++ {
		header = append(header, CategoryName(sim.Category(c)))
	}
	header = append(header, "busy%", "idle%")
	var rows [][]string
	for _, r := range ranks {
		row := []string{r.Track}
		for c := 0; c < NumCategories; c++ {
			row = append(row, fmt.Sprintf("%.4f", r.Busy[c]))
		}
		busyFrac, idleFrac := fractions(r, epoch)
		row = append(row, fmt.Sprintf("%.1f", busyFrac*100), fmt.Sprintf("%.1f", idleFrac*100))
		rows = append(rows, row)
	}
	return metrics.Table(header, rows)
}

func fractions(r MeasuredRank, epoch float64) (busy, idle float64) {
	if epoch <= 0 {
		return 0, 0
	}
	busy = r.TotalBusy() / epoch
	idle = 1 - busy
	if idle < 0 {
		idle = 0
	}
	return busy, idle
}

// UtilizationReport renders the measured busy/idle breakdown and, when a
// modeled report is supplied, a side-by-side comparison normalized to
// fractions of each side's epoch (the measured run executes float32
// kernels on CPU while the model predicts GPU schedules, so absolute
// seconds are incomparable but the schedule *shape* — who waits, and how
// much — is). The model-error columns are measured − modeled in
// percentage points.
func UtilizationReport(ranks []MeasuredRank, epoch float64, modeled *metrics.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "measured utilization (epoch %s, %d ranks)\n",
		metrics.FormatSeconds(epoch), len(ranks))
	b.WriteString(BreakdownTable(ranks, epoch))
	if modeled == nil {
		return b.String()
	}
	fmt.Fprintf(&b, "\nmeasured vs modeled (%s, modeled epoch %s)\n",
		modeled.Strategy, metrics.FormatSeconds(modeled.EpochTime))
	header := []string{"rank", "meas busy%", "model busy%", "err(pp)", "meas idle%", "model idle%", "err(pp)"}
	var rows [][]string
	n := len(ranks)
	if len(modeled.Ranks) < n {
		n = len(modeled.Ranks)
	}
	for i := 0; i < n; i++ {
		mb, mi := fractions(ranks[i], epoch)
		var pb, pi float64
		if modeled.EpochTime > 0 {
			pb = modeled.Ranks[i].TotalBusy() / modeled.EpochTime
			pi = modeled.Ranks[i].Idle / modeled.EpochTime
		}
		rows = append(rows, []string{
			ranks[i].Track,
			fmt.Sprintf("%.1f", mb*100), fmt.Sprintf("%.1f", pb*100),
			fmt.Sprintf("%+.1f", (mb-pb)*100),
			fmt.Sprintf("%.1f", mi*100), fmt.Sprintf("%.1f", pi*100),
			fmt.Sprintf("%+.1f", (mi-pi)*100),
		})
	}
	b.WriteString(metrics.Table(header, rows))
	if len(ranks) != len(modeled.Ranks) {
		fmt.Fprintf(&b, "(rank count mismatch: %d measured, %d modeled)\n",
			len(ranks), len(modeled.Ranks))
	}
	return b.String()
}
