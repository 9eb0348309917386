package trace

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
	"pipebd/internal/sim"
)

// recorded returns one simulated track: teacher [0,10ms), student
// [10,30ms), update [30,35ms).
func recorded() ([]string, map[string][]obs.Span) {
	tr := sim.NewTrack("gpu0", true)
	tr.Exec(0, 10e-3, obs.CatTeacherFwd, "T0")
	tr.Exec(0, 20e-3, obs.CatStudentFwd, "S0")
	tr.Exec(0, 5e-3, obs.CatUpdate, "U")
	return sim.Spans([]*sim.Track{tr})
}

// row returns the chart line of the named track.
func row(out, name string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return line
		}
	}
	return ""
}

func TestGanttRendersRowsAndLegend(t *testing.T) {
	order, byTrack := recorded()
	out := Gantt(order, byTrack, 0, 1, 70)
	if !strings.Contains(out, "gpu0") {
		t.Fatal("missing track name")
	}
	want := "legend: L=load T=teacher-fwd S=student-fwd s=student-bwd U=update c=relay A=all-reduce .=idle\n"
	if !strings.HasSuffix(out, want) {
		t.Fatalf("a simulated chart's legend lists the seven modelled categories only:\n%s", out)
	}
	// Fill characters must appear proportionally: S spans 2x T.
	countT := strings.Count(out, "T")
	countS := strings.Count(out, "S")
	if countS <= countT {
		t.Fatalf("student span (%d) should exceed teacher span (%d)", countS, countT)
	}
	if !strings.Contains(out, "T0") || !strings.Contains(out, "S0") {
		t.Fatal("labels not overlaid")
	}
}

func TestGanttClipsWindow(t *testing.T) {
	order, byTrack := recorded()
	out := Gantt(order, byTrack, 12.0/35, 30.0/35, 60)
	// Teacher span [0,10ms) is outside the window.
	if strings.Contains(out, "T0") {
		t.Fatal("teacher span should be clipped out")
	}
	if !strings.Contains(out, "12.0ms") || !strings.Contains(out, "30.0ms") {
		t.Fatalf("axis does not show the window:\n%s", out)
	}
}

func TestGanttEmptyWindow(t *testing.T) {
	order, byTrack := recorded()
	for _, out := range []string{Gantt(nil, nil, 0, 1, 40), Gantt(order, byTrack, 0.5, 0.5, 40)} {
		if !strings.Contains(out, "empty") {
			t.Fatalf("expected empty-window notice, got %q", out)
		}
	}
}

func TestGanttIdleDots(t *testing.T) {
	tr := sim.NewTrack("g", true)
	tr.Exec(0, 1e-3, obs.CatLoad, "DL")
	tr.Exec(10e-3, 1e-3, obs.CatLoad, "DL") // idle from 1 to 10ms
	order, byTrack := sim.Spans([]*sim.Track{tr})
	out := Gantt(order, byTrack, 0, 1, 44)
	if r := row(out, "g"); !strings.Contains(r, "....") {
		t.Fatalf("expected idle dots in %q", r)
	}
}

func TestMinWidth(t *testing.T) {
	order, byTrack := recorded()
	out := Gantt(order, byTrack, 0, 1, 1)
	if len(row(out, "gpu0")) != len("gpu0  ")+20 {
		t.Fatalf("tiny width must still render 20 columns:\n%s", out)
	}
}

// TestGanttDrawsAnEngineRun renders a real engine.Run trace — a split
// first stage and a relayed second one, behind the step barrier — through
// the same Gantt that draws simulations. Nested runtime spans draw over
// their parents, the runtime-only wait category joins the legend, and a
// Chrome trace file of the run read back by obs.ReadChromeTrace draws the
// identical chart.
func TestGanttDrawsAnEngineRun(t *testing.T) {
	tiny := distill.DefaultTinyConfig()
	data := dataset.NewRandom(rand.New(rand.NewSource(11)), 3*8, 3, tiny.Height, tiny.Width, 4)
	plan := sched.Plan{Name: "hybrid", Groups: []sched.Group{
		{Devices: []int{0, 1}, Blocks: []int{0, 1}},
		{Devices: []int{2}, Blocks: []int{2, 3}},
	}}
	tracer := obs.NewTracer(true)
	engine.Run(distill.NewTinyWorkbench(tiny), data.Batches(8), sched.TeacherRelaying(plan, false),
		engine.Config{LR: 0.05, Momentum: 0.9, Trace: tracer})
	c := obs.NewCollector()
	for _, tk := range tracer.Tracks() {
		c.Add(tk.Name(), tk.Drain())
	}
	order, byTrack := c.Tracks()

	// A span shorter than a column can be drawn over by the span after it,
	// so the chart is wide enough that the shortest span looked for below
	// covers at least one column of its own.
	first, last, shortest := int64(math.MaxInt64), int64(math.MinInt64), int64(math.MaxInt64)
	for _, name := range order {
		for _, s := range byTrack[name] {
			first, last = min(first, s.Start), max(last, s.Start+s.Dur)
			if s.Dur > 0 && (s.Cat == obs.CatTeacherFwd || s.Cat == obs.CatStudentFwd || s.Cat == obs.CatAllReduce) {
				shortest = min(shortest, s.Dur)
			}
		}
	}
	width := max(160, int((last-first)/shortest)+1)

	out := Gantt(order, byTrack, 0, 1, width)
	for _, dev := range []string{"dev0", "dev1"} {
		if r := row(out, dev); !strings.ContainsAny(r, "T") || !strings.ContainsAny(r, "A") {
			t.Errorf("%s: a first-stage rank shows teacher and all-reduce time: %q", dev, r)
		}
	}
	if r := row(out, "dev2"); !strings.ContainsAny(r, "S") || strings.ContainsAny(r, "A") {
		t.Errorf("dev2: the unsplit stage trains and never all-reduces: %q", r)
	}
	if !strings.Contains(out, " w=wait .=idle\n") {
		t.Errorf("barrier waits are drawn and listed in the legend:\n%s", out)
	}

	var file bytes.Buffer
	if err := obs.WriteChromeTrace(&file, order, byTrack); err != nil {
		t.Fatal(err)
	}
	readOrder, readByTrack, err := obs.ReadChromeTrace(&file)
	if err != nil {
		t.Fatal(err)
	}
	if again := Gantt(readOrder, readByTrack, 0, 1, width); again != out {
		t.Fatalf("the trace file draws a different chart:\n%s\nwant\n%s", again, out)
	}
}
