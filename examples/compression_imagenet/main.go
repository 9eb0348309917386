// Model compression on ImageNet: the paper's heaviest workload
// (VGG-16 -> DS-Conv student). Shows why the LS baseline collapses here
// (redundant teacher prefixes over a 15.5 GMAC teacher) and how teacher
// relaying plus decoupled updates recover the time, with the per-rank
// memory story of Fig. 7.
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
	w := model.Compression(true)
	sys := hw.A6000x4()
	batch := 256

	fmt.Printf("Model compression / ImageNet on %s\n", sys.Name)
	fmt.Printf("teacher %s: %.1fM params, %.1f GMACs\n",
		w.Teacher.Net.Name, float64(w.Teacher.Net.ParamCount())/1e6, w.Teacher.Net.MACs()/1e9)
	fmt.Printf("student %s: %.1fM params, %.1f GMACs\n\n",
		w.Student.Net.Name, float64(w.Student.Net.ParamCount())/1e6, w.Student.Net.MACs()/1e9)

	var reports []metrics.Report
	for _, rung := range pipeline.Ladder(pipeline.Config{Workload: w, System: sys, GlobalBatch: batch}) {
		r, _ := rung.Run()
		reports = append(reports, r)
	}
	dp, pb := reports[0], reports[len(reports)-1] // the ladder runs from the DP baseline to full Pipe-BD

	header := []string{"strategy", "epoch", "speedup", "teacher exec (all ranks)"}
	var rows [][]string
	for _, r := range reports {
		var teacher float64
		for _, rank := range r.Ranks {
			teacher += rank.Busy[obs.CatTeacherFwd]
		}
		rows = append(rows, []string{
			r.Strategy, metrics.FormatSeconds(r.EpochTime),
			fmt.Sprintf("%.2fx", r.Speedup(dp)),
			metrics.FormatSeconds(teacher),
		})
	}
	fmt.Print(metrics.Table(header, rows))

	fmt.Println("\nLS re-executes the teacher prefix for every layer task; TR runs each")
	fmt.Println("teacher block exactly once per step and relays the activation instead.")

	fmt.Println("\nPer-rank peak memory (GB):")
	for _, r := range reports {
		fmt.Printf("  %-12s", r.Strategy)
		for _, rank := range r.Ranks {
			fmt.Printf("  %5.2f", float64(rank.PeakMemBytes)/(1<<30))
		}
		fmt.Println()
	}
	fmt.Println("\nPipe-BD schedule:", pb.ScheduleDesc)
}
