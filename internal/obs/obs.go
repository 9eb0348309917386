// Package obs is the span model every timeline of the project shares: the
// category vocabulary, the Span a track records, a low-overhead tracer
// threaded through the real execution paths (the in-process engine's
// device goroutines and the cluster workers' device loops), a Chrome
// trace-event reader and writer, and an opt-in HTTP debug server (pprof +
// /metrics).
//
// The simulator's tracks (internal/sim) record the same Span in virtual
// time, so one renderer (internal/trace's Gantt, WriteChromeTrace) and one
// breakdown (metrics.Measured) serve a modelled schedule and a measured
// run alike.
//
// Tracing is off by default and near-free when disabled: Track.Begin is
// a nil check plus one atomic load, allocates nothing, and takes no
// clock reading. TestDisabledTracingOverhead guards that property; the
// obs.trace_overhead_share metric of benchmark/ measures the enabled cost.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Category classifies a span: the breakdown the paper reports in Fig. 2,
// the communication classes, and three classes only a real run has. The
// values are part of the wire format (spans travel in KindSpans frames).
type Category int

// Span categories. The simulator records the first seven; CatWait,
// CatSnapshot and CatLedger exist only at runtime.
const (
	CatLoad       Category = iota // data loading (host loader)
	CatTeacherFwd                 // teacher block forward
	CatStudentFwd                 // student block forward
	CatStudentBwd                 // student block backward
	CatUpdate                     // optimizer step
	CatComm                       // activation relay transfer
	CatAllReduce                  // gradient all-reduce
	// CatWait is time blocked on a step barrier or a peer ack window —
	// the measured analogue of the simulator's idle/bubble time.
	CatWait
	CatSnapshot // encoding and sending a device snapshot
	CatLedger   // coordinator time appending durable-run records

	// NumCategories is the number of distinct categories.
	NumCategories = iota
)

var categoryNames = [NumCategories]string{"load", "teacher_fwd", "student_fwd", "student_bwd",
	"update", "comm", "allreduce", "wait", "snapshot", "ledger"}

// String returns the category's display name.
func (c Category) String() string {
	if c >= 0 && c < NumCategories {
		return categoryNames[c]
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// Span is one timed region on a track, in nanoseconds. A measured span's
// Start is wall-clock time since the Unix epoch, so spans from different
// processes on one machine share a timeline; a simulated span's Start is
// virtual time since the simulation began.
type Span struct {
	Name  string
	Cat   Category
	Start int64
	Dur   int64
}

// maxSpansPerTrack bounds a track's buffered spans between drains. Spans
// are drained every step in the cluster path, so the cap only bites when
// a consumer stops draining; overflow increments Dropped instead of
// growing without bound.
const maxSpansPerTrack = 1 << 16

// Tracer owns the process-wide enable flag and the set of tracks. The
// zero value is unusable; construct with NewTracer. A nil *Tracer is a
// valid "tracing compiled out" value: NewTrack returns a nil *Track whose
// Begin is a no-op.
type Tracer struct {
	enabled atomic.Bool
	mu      sync.Mutex
	tracks  []*Track
}

// NewTracer returns a tracer with the given initial enable state.
func NewTracer(enabled bool) *Tracer {
	t := &Tracer{}
	t.enabled.Store(enabled)
	return t
}

// NewTrack registers and returns a named track (one per device
// goroutine by convention: "dev0", "dev1", ... plus "coordinator"). A
// nil tracer returns a nil track, which every Track method accepts.
func (t *Tracer) NewTrack(name string) *Track {
	if t == nil {
		return nil
	}
	tk := &Track{tracer: t, name: name}
	t.mu.Lock()
	t.tracks = append(t.tracks, tk)
	t.mu.Unlock()
	return tk
}

// Tracks returns the registered tracks in creation order.
func (t *Tracer) Tracks() []*Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Track(nil), t.tracks...)
}

// Track is a per-goroutine span recorder. One goroutine appends (the
// device loop that owns it); Drain/Spans may be called from any
// goroutine.
type Track struct {
	tracer  *Tracer
	name    string
	mu      sync.Mutex
	spans   []Span
	dropped int64
}

// Name returns the track's name.
func (tk *Track) Name() string {
	if tk == nil {
		return ""
	}
	return tk.name
}

// Region is an in-flight span handle returned by Begin. The zero value
// (disabled tracing, nil track) is valid and End on it does nothing.
type Region struct {
	tk    *Track
	name  string
	cat   Category
	start int64
}

// Begin opens a span. When the track is nil or its tracer is disabled
// this is one branch plus one atomic load: no allocation, no clock read.
func (tk *Track) Begin(cat Category, name string) Region {
	if tk == nil || !tk.tracer.enabled.Load() {
		return Region{}
	}
	return Region{tk: tk, name: name, cat: cat, start: time.Now().UnixNano()}
}

// End closes the span and records it.
func (r Region) End() {
	if r.tk == nil {
		return
	}
	dur := time.Now().UnixNano() - r.start
	r.tk.record(Span{Name: r.name, Cat: r.cat, Start: r.start, Dur: dur})
}

func (tk *Track) record(s Span) {
	tk.mu.Lock()
	if len(tk.spans) < maxSpansPerTrack {
		tk.spans = append(tk.spans, s)
	} else {
		tk.dropped++
	}
	tk.mu.Unlock()
}

// Drain returns the buffered spans and clears the buffer. Returns nil
// when empty.
func (tk *Track) Drain() []Span {
	if tk == nil {
		return nil
	}
	tk.mu.Lock()
	defer tk.mu.Unlock()
	if len(tk.spans) == 0 {
		return nil
	}
	out := tk.spans
	tk.spans = nil
	return out
}

// Dropped returns the number of spans discarded to the buffer cap.
func (tk *Track) Dropped() int64 {
	if tk == nil {
		return 0
	}
	tk.mu.Lock()
	defer tk.mu.Unlock()
	return tk.dropped
}

// Collector accumulates span batches by track name — the coordinator
// feeds it from workers' wire batches (and its own track), the CLI
// exports it — plus the count of spans its feeders lost to
// maxSpansPerTrack, so a truncated timeline says so. Safe for concurrent
// use.
type Collector struct {
	mu      sync.Mutex
	order   []string
	tracks  map[string][]Span
	dropped int64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{tracks: map[string][]Span{}}
}

// Add appends spans to the named track's timeline.
func (c *Collector) Add(track string, spans []Span) {
	if len(spans) == 0 {
		return
	}
	c.mu.Lock()
	if _, ok := c.tracks[track]; !ok {
		c.order = append(c.order, track)
	}
	c.tracks[track] = append(c.tracks[track], spans...)
	c.mu.Unlock()
}

// AddDropped records that n spans never reached the collector because a
// feeding track overflowed between drains.
func (c *Collector) AddDropped(n int64) {
	c.mu.Lock()
	c.dropped += n
	c.mu.Unlock()
}

// Tracks returns the collected spans keyed by track name, with track
// names in first-seen order.
func (c *Collector) Tracks() (names []string, byTrack map[string][]Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	names = append([]string(nil), c.order...)
	byTrack = make(map[string][]Span, len(c.tracks))
	for k, v := range c.tracks {
		byTrack[k] = append([]Span(nil), v...)
	}
	return names, byTrack
}

// String summarizes the collector for log lines.
func (c *Collector) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.tracks {
		n += len(v)
	}
	return fmt.Sprintf("%d spans on %d tracks, %d dropped", n, len(c.tracks), c.dropped)
}
