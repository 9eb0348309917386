package obs

import "sort"

// SelfTimes computes one track's per-category self time in nanoseconds:
// each span's duration minus its children's, so a nested span
// (reduce_scatter inside allreduce, peer_ack_wait inside send_output) is
// attributed to its own category and subtracted from its parent, and the
// categories sum to wall time actually spent. Spans on one track come
// from a single goroutine, so they either nest or are disjoint; sorting
// by start (ties: longer span first) makes parents precede their
// children.
func SelfTimes(spans []Span) [NumCategories]int64 {
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
		cat  Category
		self int64
	}
	var stack []open
	flush := func(upTo int64) {
		for len(stack) > 0 && stack[len(stack)-1].end <= upTo {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if top.cat >= 0 && top.cat < NumCategories && top.self > 0 {
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
