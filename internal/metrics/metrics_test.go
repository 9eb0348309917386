package metrics

import (
	"math"
	"strings"
	"testing"

	"pipebd/internal/obs"
)

func sampleReport() Report {
	var busy0, busy1 [obs.NumCategories]float64
	busy0[obs.CatLoad] = 1
	busy0[obs.CatTeacherFwd] = 2
	busy0[obs.CatStudentFwd] = 3
	busy0[obs.CatStudentBwd] = 4
	busy0[obs.CatUpdate] = 0.5
	busy1[obs.CatComm] = 1.5
	busy1[obs.CatAllReduce] = 0.5
	return Report{
		Strategy:    "TR",
		Workload:    "nas-cifar10",
		GlobalBatch: 256,
		Steps:       10,
		EpochTime:   12,
		Ranks: []RankStats{
			{Busy: busy0, Idle: 1.5, PeakMemBytes: 100},
			{Busy: busy1, Idle: 10, PeakMemBytes: 300},
		},
	}
}

func TestRankTotalBusy(t *testing.T) {
	r := sampleReport()
	if got := r.Ranks[0].TotalBusy(); math.Abs(got-10.5) > 1e-12 {
		t.Fatalf("TotalBusy = %v, want 10.5", got)
	}
}

func TestFigTwoBreakdown(t *testing.T) {
	r := sampleReport()
	load, teacher, student, idle := r.FigTwoBreakdown()
	// Averages over 2 ranks.
	if math.Abs(load-0.5) > 1e-12 {
		t.Fatalf("load = %v, want 0.5", load)
	}
	if math.Abs(teacher-1) > 1e-12 {
		t.Fatalf("teacher = %v, want 1", teacher)
	}
	// student = (3+4+0.5 + 0.5)/2 = 4; comm counts as idle.
	if math.Abs(student-4) > 1e-12 {
		t.Fatalf("student = %v, want 4", student)
	}
	if math.Abs(idle-(1.5+10+1.5)/2) > 1e-12 {
		t.Fatalf("idle = %v", idle)
	}
	// The four components must span the epoch (per-rank averages).
	if math.Abs(load+teacher+student+idle-r.EpochTime) > 1e-9 {
		t.Fatalf("breakdown does not span epoch: %v", load+teacher+student+idle)
	}
}

func TestPeakMemory(t *testing.T) {
	if got := sampleReport().PeakMemory(); got != 300 {
		t.Fatalf("PeakMemory = %d, want 300", got)
	}
}

func TestSpeedup(t *testing.T) {
	base := Report{EpochTime: 30}
	fast := Report{EpochTime: 10}
	if got := fast.Speedup(base); math.Abs(got-3) > 1e-12 {
		t.Fatalf("Speedup = %v, want 3", got)
	}
	var zero Report
	if zero.Speedup(base) != 0 {
		t.Fatal("zero epoch time must not divide")
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{31.52, "31.52s."},
		{0.5, "0.50s."},
		{109, "1m 49s."},
		{3741, "62m 21s."},
		{3639, "60m 39s."},
	}
	for _, c := range cases {
		if got := FormatSeconds(c.in); got != c.want {
			t.Errorf("FormatSeconds(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestReportString(t *testing.T) {
	s := sampleReport().String()
	for _, frag := range []string{"TR", "nas-cifar10", "batch=256"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String %q missing %q", s, frag)
		}
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"a", "long-header"}, [][]string{
		{"x", "1"},
		{"yyyy", "22"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	// All rows equal width for their first column.
	if !strings.HasPrefix(lines[3], "yyyy") || !strings.Contains(lines[0], "long-header") {
		t.Fatalf("unexpected table:\n%s", out)
	}
}

func TestMeasuredAndRankStats(t *testing.T) {
	byTrack := map[string][]obs.Span{
		"dev0": {
			{Name: "student_fwd", Cat: obs.CatStudentFwd, Start: 1e9, Dur: 2e9},
			{Name: "barrier_wait", Cat: obs.CatWait, Start: 3e9, Dur: 1e9},
		},
		"dev1": {
			{Name: "update", Cat: obs.CatUpdate, Start: 2e9, Dur: 1e9},
		},
		"coordinator": {{Name: "ledger_append", Cat: obs.CatLedger, Start: 0, Dur: 9e9}},
	}
	rep := Measured([]string{"dev0", "dev1", "absent"}, byTrack)
	if len(rep.Ranks) != 2 || rep.Ranks[0].Track != "dev0" || rep.Ranks[1].Track != "dev1" {
		t.Fatalf("ranks %+v, want dev0 and dev1", rep.Ranks)
	}
	if rep.EpochTime != 3 { // 1s..4s across the two tracks asked for
		t.Fatalf("epoch = %v, want 3", rep.EpochTime)
	}
	r := rep.Ranks[0]
	if r.Busy[obs.CatStudentFwd] != 2 || r.Busy[obs.CatWait] != 1 {
		t.Fatalf("busy = %v", r.Busy)
	}
	// 3s epoch − 2s busy; the wait second is idle.
	if r.TotalBusy() != 2 || r.Idle != 1 {
		t.Fatalf("busy %v idle %v, want 2 and 1", r.TotalBusy(), r.Idle)
	}
	if empty := Measured([]string{"dev0"}, nil); empty.EpochTime != 0 || len(empty.Ranks) != 0 {
		t.Fatalf("no spans measured %+v", empty)
	}
}

func TestUtilizationReport(t *testing.T) {
	measured := Report{EpochTime: 1, Ranks: []RankStats{{Track: "dev0", Idle: 0.4}, {Track: "dev1", Idle: 0.7}}}
	measured.Ranks[0].Busy[obs.CatStudentFwd] = 0.6
	measured.Ranks[1].Busy[obs.CatUpdate] = 0.3
	modeled := &Report{Strategy: "TR", EpochTime: 10, Ranks: make([]RankStats, 2)}
	modeled.Ranks[0].Busy[obs.CatStudentFwd] = 7
	modeled.Ranks[0].Idle = 3
	modeled.Ranks[1].Busy[obs.CatUpdate] = 4
	modeled.Ranks[1].Idle = 6
	out := UtilizationReport(measured, modeled)
	for _, want := range []string{"measured utilization", "measured vs modeled",
		"dev0", "dev1", "err(pp)", "60.0", "70.0", "-10.0", "snapshot"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// Measured-only mode still renders a breakdown.
	out = UtilizationReport(measured, nil)
	if !strings.Contains(out, "busy%") || strings.Contains(out, "modeled") {
		t.Fatalf("measured-only report wrong:\n%s", out)
	}
}
