// NAS on CIFAR-10: the paper's first workload end to end — full ablation
// (DP, LS, TR, TR+DPU, TR+IR, TR+DPU+AHD), the Fig. 2 style breakdown of
// where each schedule spends its time, and the per-rank memory footprint.
package main

import (
	"fmt"

	"pipebd/internal/hw"
	"pipebd/internal/metrics"
	"pipebd/internal/model"
	"pipebd/internal/obs"
	"pipebd/internal/pipeline"
)

func main() {
	w := model.NAS(false)
	sys := hw.A6000x4()
	batch := 256
	cfg := pipeline.Config{Workload: w, System: sys, GlobalBatch: batch}

	var reports []metrics.Report
	for _, rung := range pipeline.Ladder(cfg) {
		r, _ := rung.Run()
		reports = append(reports, r)
	}
	dp := reports[0] // the ladder starts with the DP baseline

	fmt.Printf("NAS / CIFAR-10 on %s, batch %d\n\n", sys.Name, batch)
	header := []string{"strategy", "epoch", "speedup", "load", "teacher", "student", "idle", "peak mem"}
	var rows [][]string
	for _, r := range reports {
		load, teacher, student, idle := r.FigTwoBreakdown()
		rows = append(rows, []string{
			r.Strategy,
			metrics.FormatSeconds(r.EpochTime),
			fmt.Sprintf("%.2fx", r.Speedup(dp)),
			fmt.Sprintf("%.1fs", load),
			fmt.Sprintf("%.1fs", teacher),
			fmt.Sprintf("%.1fs", student),
			fmt.Sprintf("%.1fs", idle),
			fmt.Sprintf("%.2fGB", float64(r.PeakMemory())/(1<<30)),
		})
	}
	fmt.Print(metrics.Table(header, rows))

	fmt.Println("\nWhere the DP baseline loses its time (per rank):")
	for i, rank := range dp.Ranks {
		fmt.Printf("  rank %d: teacher %.1fs (redundant prefix), load %.1fs, idle %.1fs\n",
			i, rank.Busy[obs.CatTeacherFwd], rank.Busy[obs.CatLoad], rank.Idle)
	}
	fmt.Println("\nPipe-BD schedule:", reports[len(reports)-1].ScheduleDesc)
}
