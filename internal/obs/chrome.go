package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
)

// Chrome trace-event-format export. The output is the JSON Object Format
// ({"traceEvents": [...]}) of the Trace Event Format spec, loadable in
// chrome://tracing and https://ui.perfetto.dev: one "thread" (tid) per
// track with a thread_name metadata record, and one complete ("X") event
// per span with microsecond timestamps rebased so the earliest span
// starts at t=0.

type chromeEvent struct {
	Name  string  `json:"name"`
	Cat   string  `json:"cat,omitempty"`
	Phase string  `json:"ph"`
	TS    float64 `json:"ts"`
	// Dur must never be omitted: a complete ("X") event without a dur
	// field is rejected by strict trace viewers, and zero-duration spans
	// (clock-granularity regions) are legitimate — so no omitempty here.
	// Metadata records use chromeMeta, which is how they stay dur-free.
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeMeta is a metadata ("M") record, which has no duration or
// timestamp semantics and therefore must not grow a "dur" field when
// chromeEvent's Dur stopped being omitempty.
type chromeMeta struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []any  `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the collected spans as Chrome trace JSON.
// Track order fixes the tid assignment (and therefore the row order in
// the viewer); names absent from byTrack are skipped.
func WriteChromeTrace(w io.Writer, order []string, byTrack map[string][]Span) error {
	base := int64(0)
	first := true
	for _, spans := range byTrack {
		for _, s := range spans {
			if first || s.Start < base {
				base = s.Start
				first = false
			}
		}
	}
	trace := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []any{}}
	for tid, name := range order {
		spans, ok := byTrack[name]
		if !ok {
			continue
		}
		trace.TraceEvents = append(trace.TraceEvents, chromeMeta{
			Name: "thread_name", Phase: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": name},
		})
		// Stable-sort by start so nested spans (e.g. reduce_scatter inside
		// allreduce) render as a proper stack in the viewer.
		sorted := append([]Span(nil), spans...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
		for _, s := range sorted {
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name:  s.Name,
				Cat:   CategoryName(s.Cat),
				Phase: "X",
				TS:    float64(s.Start-base) / 1e3,
				Dur:   float64(s.Dur) / 1e3,
				PID:   1,
				TID:   tid,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}

// WriteChromeTraceFile writes the collector's contents to path via a
// sibling temp file and a rename, so a reader of path never observes a
// half-written document.
func WriteChromeTraceFile(path string, c *Collector) error {
	order, byTrack := c.Tracks()
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = WriteChromeTrace(f, order, byTrack)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
