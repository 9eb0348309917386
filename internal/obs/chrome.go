package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Chrome trace-event-format export and import. The document is the JSON
// Object Format ({"traceEvents": [...]}) of the Trace Event Format spec,
// loadable in chrome://tracing and https://ui.perfetto.dev: one "thread"
// (tid) per track with a thread_name metadata record, and one complete
// ("X") event per span with microsecond timestamps rebased so the
// earliest span starts at t=0.

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
				Cat:   s.Cat.String(),
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

// maxTraceMicros bounds a span's end in a read trace (about 100 days
// after the earliest span) so the conversion to int64 nanoseconds cannot
// overflow.
const maxTraceMicros = 1e13

// ReadChromeTrace parses a document WriteChromeTrace wrote back into
// spans by track: the inverse of the writer up to its rebasing (the
// earliest span starts at 0) and its microsecond timestamps. Tracks come
// in thread-id order, which is the writer's track order. A document that
// is not such a trace — bad JSON, an unknown category, a span on a thread
// without a thread_name record, a negative or unbounded time — is an
// error.
func ReadChromeTrace(r io.Reader) (order []string, byTrack map[string][]Span, err error) {
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Cat   string  `json:"cat"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
			TID   int     `json:"tid"`
			Args  struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, nil, fmt.Errorf("chrome trace: %w", err)
	}
	threads := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "M" && ev.Name == "thread_name" {
			threads[ev.TID] = ev.Args.Name
		}
	}
	byCat := map[string]Category{}
	for c := Category(0); c < NumCategories; c++ {
		byCat[c.String()] = c
	}
	byTrack = map[string][]Span{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		track, ok := threads[ev.TID]
		if !ok {
			return nil, nil, fmt.Errorf("chrome trace: span %q on thread %d, which has no thread_name", ev.Name, ev.TID)
		}
		cat, ok := byCat[ev.Cat]
		if !ok {
			return nil, nil, fmt.Errorf("chrome trace: span %q has unknown category %q", ev.Name, ev.Cat)
		}
		if !(ev.TS >= 0 && ev.Dur >= 0 && ev.TS+ev.Dur <= maxTraceMicros) {
			return nil, nil, fmt.Errorf("chrome trace: span %q has time [%v, +%v] us", ev.Name, ev.TS, ev.Dur)
		}
		byTrack[track] = append(byTrack[track], Span{Name: ev.Name, Cat: cat,
			Start: int64(math.Round(ev.TS * 1e3)), Dur: int64(math.Round(ev.Dur * 1e3))})
	}
	tids := make([]int, 0, len(threads))
	for tid := range threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	seen := map[string]bool{}
	for _, tid := range tids {
		if name := threads[tid]; !seen[name] && byTrack[name] != nil {
			seen[name] = true
			order = append(order, name)
		}
	}
	return order, byTrack, nil
}

// WriteChromeTraceFile writes WriteChromeTrace's document to path via a
// sibling temp file and a rename, so a reader of path never observes a
// half-written document.
func WriteChromeTraceFile(path string, order []string, byTrack map[string][]Span) error {
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
