package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pipebd/internal/testutil"
)

// handClock is a Clock the test moves by hand.
type handClock struct{ ns int64 }

func (c *handClock) Now() int64 { return c.ns }

func TestTrackRecordsAndDrains(t *testing.T) {
	tr := NewTracer(true)
	tk := tr.NewTrack("dev0")
	clock := &handClock{ns: 5000}
	tk.SetClock(clock)
	r := tk.Begin(CatStudentFwd, "student_fwd")
	clock.ns += 1_000_000
	r.End()
	tk.Begin(CatSnapshot, "snapshot").End()
	spans := tk.Drain()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "student_fwd" || spans[0].Cat != CatStudentFwd {
		t.Fatalf("bad span: %+v", spans[0])
	}
	if spans[0].Start != 5000 || spans[0].Dur != 1_000_000 {
		t.Fatalf("span read %d+%d ns off its track's clock, want 5000+1000000", spans[0].Start, spans[0].Dur)
	}
	if got := tk.Drain(); got != nil {
		t.Fatalf("second drain returned %d spans", len(got))
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := NewTracer(false)
	tk := tr.NewTrack("dev0")
	tk.Begin(CatUpdate, "update").End()
	if got := tk.Drain(); got != nil {
		t.Fatalf("disabled tracer recorded %d spans", len(got))
	}
	// Nil track and nil tracer are valid no-ops everywhere.
	var nilTracer *Tracer
	nilTrack := nilTracer.NewTrack("x")
	nilTrack.Begin(CatUpdate, "update").End()
	if nilTrack.Drain() != nil || nilTrack.Dropped() != 0 || nilTrack.Name() != "" {
		t.Fatal("nil track not inert")
	}
	if nilTracer.Tracks() != nil {
		t.Fatal("nil tracer not inert")
	}
}

func TestTrackDropsAtCap(t *testing.T) {
	tr := NewTracer(true)
	tk := tr.NewTrack("dev0")
	for i := 0; i < maxSpansPerTrack+10; i++ {
		tk.record(Span{Name: "s", Cat: CatUpdate, Start: int64(i), Dur: 1})
	}
	if got := tk.Dropped(); got != 10 {
		t.Fatalf("dropped = %d, want 10", got)
	}
	if got := len(tk.Drain()); got != maxSpansPerTrack {
		t.Fatalf("buffered = %d, want %d", got, maxSpansPerTrack)
	}
}

func TestSelfTimesAttributesNesting(t *testing.T) {
	// allreduce [0,100) with nested reduce_scatter [10,40) and
	// all_gather [50,90); a disjoint wait [100,130).
	spans := []Span{
		{Name: "allreduce", Cat: CatAllReduce, Start: 0, Dur: 100},
		{Name: "reduce_scatter", Cat: CatAllReduce, Start: 10, Dur: 30},
		{Name: "all_gather", Cat: CatAllReduce, Start: 50, Dur: 40},
		{Name: "barrier_wait", Cat: CatWait, Start: 100, Dur: 30},
	}
	busy := SelfTimes(spans)
	if busy[CatAllReduce] != 100 {
		t.Fatalf("allreduce self time = %d, want 100 (no double count)", busy[CatAllReduce])
	}
	if busy[CatWait] != 30 {
		t.Fatalf("wait self time = %d, want 30", busy[CatWait])
	}
	// A nested wait subtracts from its parent's category.
	spans = []Span{
		{Name: "send_output", Cat: CatComm, Start: 0, Dur: 100},
		{Name: "peer_ack_wait", Cat: CatWait, Start: 5, Dur: 60},
	}
	busy = SelfTimes(spans)
	if busy[CatComm] != 40 || busy[CatWait] != 60 {
		t.Fatalf("comm=%d wait=%d, want 40/60", busy[CatComm], busy[CatWait])
	}
}

// TestChromeTraceFileIsAtomic: the file writer lands the trace by rename,
// so the directory holds exactly the finished document (no temp residue)
// and an unwritable destination leaves nothing behind.
func TestChromeTraceFileIsAtomic(t *testing.T) {
	c := NewCollector()
	c.Add("dev0", []Span{{Name: "teacher_fwd", Cat: CatTeacherFwd, Start: 5e9, Dur: 1e6}})
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	order, byTrack := c.Tracks()
	if err := WriteChromeTraceFile(path, order, byTrack); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Fatalf("trace file is not valid JSON: %q", raw)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("trace directory holds %d entries, want only the finished file", len(entries))
	}
	if err := WriteChromeTraceFile(filepath.Join(dir, "absent", "trace.json"), order, byTrack); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

func TestChromeTraceExport(t *testing.T) {
	c := NewCollector()
	c.Add("dev0", []Span{{Name: "teacher_fwd", Cat: CatTeacherFwd, Start: 5e9, Dur: 1e6}})
	c.Add("dev1", []Span{{Name: "allreduce", Cat: CatAllReduce, Start: 6e9, Dur: 2e6}})
	c.Add("dev0", []Span{{Name: "barrier_wait", Cat: CatWait, Start: 7e9, Dur: 3e6}})
	c.AddDropped(4)
	if got := c.String(); got != "3 spans on 2 tracks, 4 dropped" {
		t.Fatalf("collector summary = %q", got)
	}
	var buf bytes.Buffer
	order, byTrack := c.Tracks()
	if err := WriteChromeTrace(&buf, order, byTrack); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Cat   string         `json:"cat"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	threadNames := map[string]bool{}
	var sawX int
	for _, ev := range parsed.TraceEvents {
		switch ev.Phase {
		case "M":
			threadNames[ev.Args["name"].(string)] = true
		case "X":
			sawX++
			if ev.TS < 0 || ev.Dur <= 0 {
				t.Fatalf("bad event times: %+v", ev)
			}
			if ev.Name == "teacher_fwd" && ev.TS != 0 {
				t.Fatalf("earliest span not rebased to 0: ts=%v", ev.TS)
			}
		}
	}
	if !threadNames["dev0"] || !threadNames["dev1"] {
		t.Fatalf("missing thread_name metadata: %v", threadNames)
	}
	if sawX != 3 {
		t.Fatalf("got %d X events, want 3", sawX)
	}
}

func TestMetricsRegistry(t *testing.T) {
	m := NewMetrics()
	m.Add("steps_completed", 5)
	m.Add("steps_completed", 2)
	m.Set("restarts", 1)
	var buf bytes.Buffer
	m.Render(&buf)
	got := buf.String()
	if !strings.Contains(got, "steps_completed 7") || !strings.Contains(got, "restarts 1") {
		t.Fatalf("metrics page wrong:\n%s", got)
	}
	var nilM *Metrics
	nilM.Add("x", 1)
	nilM.Set("y", 2)
	nilM.Counter("z").Add(3)
	nilM.Render(&buf)
}

func TestDebugServer(t *testing.T) {
	testutil.LeakCheck(t)
	m := NewMetrics()
	m.Add("steps_completed", 42)
	srv, err := StartDebugServer("127.0.0.1:0", func(w io.Writer) { m.Render(w) })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if got := get("/metrics"); !strings.Contains(got, "steps_completed 42") {
		t.Fatalf("/metrics wrong:\n%s", got)
	}
	if got := get("/debug/pprof/"); !strings.Contains(got, "goroutine") {
		t.Fatalf("pprof index wrong:\n%s", got)
	}
	if got := get("/"); !strings.Contains(got, "/metrics") {
		t.Fatalf("index wrong:\n%s", got)
	}
	// http.Get keeps the connection alive; close idle conns so LeakCheck
	// sees the handler goroutines exit after srv.Close.
	http.DefaultClient.CloseIdleConnections()
}

// TestDisabledTracingOverhead is the regression guard for the "near-free
// when disabled" contract: Begin+End on a disabled tracer must cost a
// couple of nanoseconds (one nil check + one atomic load) and allocate
// nothing. The threshold is two orders of magnitude above the expected
// cost so the guard never flakes on slow CI, while still catching an
// accidental allocation or clock read on the disabled path.
func TestDisabledTracingOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard")
	}
	tr := NewTracer(false)
	tk := tr.NewTrack("dev0")
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tk.Begin(CatStudentFwd, "student_fwd").End()
		}
	})
	if perOp := res.AllocsPerOp(); perOp != 0 {
		t.Fatalf("disabled path allocates: %d allocs/op", perOp)
	}
	if ns := float64(res.T.Nanoseconds()) / float64(res.N); ns > 250 {
		t.Fatalf("disabled path costs %.1f ns/op, want < 250", ns)
	}
	if got := tk.Drain(); got != nil {
		t.Fatalf("disabled path recorded %d spans", len(got))
	}
}

func TestCategoryNames(t *testing.T) {
	want := map[Category]string{
		CatLoad:       "load",
		CatTeacherFwd: "teacher_fwd",
		CatAllReduce:  "allreduce",
		CatWait:       "wait",
		CatSnapshot:   "snapshot",
		CatLedger:     "ledger",
		NumCategories: "category(10)",
	}
	for c, name := range want {
		if got := c.String(); got != name {
			t.Fatalf("Category(%d).String() = %q, want %q", c, got, name)
		}
	}
	// Every category has a distinct printable name (table headers and the
	// trace reader rely on it).
	seen := map[string]bool{}
	for c := Category(0); c < NumCategories; c++ {
		n := c.String()
		if n == "" || seen[n] {
			t.Fatalf("category %d name %q empty or duplicated", c, n)
		}
		seen[n] = true
	}
}

func TestChromeTraceZeroDurationRoundTrip(t *testing.T) {
	// A zero-duration complete event must still carry an explicit
	// "dur":0 — strict trace viewers reject "X" events without a dur
	// field, and dur,omitempty used to drop exactly those.
	byTrack := map[string][]Span{
		"dev0": {
			{Name: "instant", Cat: CatUpdate, Start: 5e9, Dur: 0},
			{Name: "long", Cat: CatStudentFwd, Start: 5e9, Dur: 2e6},
		},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []string{"dev0"}, byTrack); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var sawInstant, sawLong bool
	for _, ev := range parsed.TraceEvents {
		switch ev["ph"] {
		case "X":
			dur, ok := ev["dur"]
			if !ok {
				t.Fatalf("complete event %v lacks a dur field", ev["name"])
			}
			switch ev["name"] {
			case "instant":
				sawInstant = true
				if dur.(float64) != 0 {
					t.Fatalf("instant span dur = %v, want 0", dur)
				}
			case "long":
				sawLong = true
				if dur.(float64) != 2e3 { // 2e6 ns = 2000 us
					t.Fatalf("long span dur = %v, want 2000", dur)
				}
			}
		case "M":
			// Metadata records have no duration semantics and must not have
			// grown a dur field when chromeEvent's omitempty was removed.
			if _, ok := ev["dur"]; ok {
				t.Fatalf("metadata record carries a dur field: %v", ev)
			}
		}
	}
	if !sawInstant || !sawLong {
		t.Fatalf("missing spans: instant=%v long=%v", sawInstant, sawLong)
	}
}

// TestReadChromeTraceRoundTrip: a written trace reads back to the same
// spans, rebased to the earliest one, with the tracks in the written
// order; documents that are not such a trace are errors.
func TestReadChromeTraceRoundTrip(t *testing.T) {
	order := []string{"dev1", "dev0", "idle"}
	byTrack := map[string][]Span{
		"dev0": {{Name: "teacher_fwd", Cat: CatTeacherFwd, Start: 5e9 + 1500, Dur: 2e6 + 7}},
		"dev1": {
			{Name: "send_output", Cat: CatComm, Start: 5e9, Dur: 100},
			{Name: "peer_ack_wait", Cat: CatWait, Start: 5e9 + 10, Dur: 0},
		},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, order, byTrack); err != nil {
		t.Fatal(err)
	}
	gotOrder, got, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gotOrder) != "[dev1 dev0]" {
		t.Fatalf("order = %v, want [dev1 dev0]", gotOrder)
	}
	for name, spans := range byTrack {
		for i, s := range spans {
			s.Start -= 5e9
			if got[name][i] != s {
				t.Fatalf("%s span %d = %+v, want %+v", name, i, got[name][i], s)
			}
		}
	}

	for _, doc := range []string{
		`{"traceEvents": [`,
		`{"traceEvents": [{"name": "x", "cat": "update", "ph": "X", "ts": 0, "dur": 1, "tid": 3}]}`,
		`{"traceEvents": [{"name": "thread_name", "ph": "M", "tid": 0, "args": {"name": "dev0"}},
			{"name": "x", "cat": "gpu", "ph": "X", "ts": 0, "dur": 1, "tid": 0}]}`,
		`{"traceEvents": [{"name": "thread_name", "ph": "M", "tid": 0, "args": {"name": "dev0"}},
			{"name": "x", "cat": "update", "ph": "X", "ts": 0, "dur": -1, "tid": 0}]}`,
		`{"traceEvents": [{"name": "thread_name", "ph": "M", "tid": 0, "args": {"name": "dev0"}},
			{"name": "x", "cat": "update", "ph": "X", "ts": 1e300, "dur": 1, "tid": 0}]}`,
	} {
		if _, _, err := ReadChromeTrace(strings.NewReader(doc)); err == nil {
			t.Errorf("ReadChromeTrace accepted %s", doc)
		}
	}
}

// FuzzReadChromeTrace: arbitrary bytes decode to spans or fail with an
// error, and what decodes writes back and reads again to the same spans.
func FuzzReadChromeTrace(f *testing.F) {
	var buf bytes.Buffer
	WriteChromeTrace(&buf, []string{"dev0"}, map[string][]Span{
		"dev0": {{Name: "student_fwd", Cat: CatStudentFwd, Start: 3, Dur: 4}},
	})
	f.Add(buf.Bytes())
	f.Add([]byte(`{"traceEvents": [{"ph": "X", "tid": 0}]}`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		order, byTrack, err := ReadChromeTrace(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := WriteChromeTrace(&again, order, byTrack); err != nil {
			t.Fatal(err)
		}
		order2, byTrack2, err := ReadChromeTrace(&again)
		if err != nil {
			t.Fatalf("a rewritten trace does not read back: %v", err)
		}
		if fmt.Sprint(order2) != fmt.Sprint(order) {
			t.Fatalf("order %v read back as %v", order, order2)
		}
		for _, name := range order {
			if len(byTrack2[name]) != len(byTrack[name]) {
				t.Fatalf("%s: %d spans read back as %d", name, len(byTrack[name]), len(byTrack2[name]))
			}
		}
	})
}
