// Heterogeneous devices: the paper's stated future direction (§VIII).
// There is one planner, and it prices every member of a candidate group
// on that member's own GPU. A node mixing two RTX A6000s with two RTX
// 2080Tis is scheduled three ways: naive equal-share data parallelism,
// the planner told the node is four A6000s (it cannot see the speed
// difference), and the same planner told the truth, which both places
// block ranges against per-device speeds and splits batches
// proportionally to member throughput.
package main

import (
	"fmt"

	"pipebd/internal/hw"
	"pipebd/internal/metrics"
	"pipebd/internal/model"
	"pipebd/internal/pipeline"
	"pipebd/internal/sched"
)

func main() {
	w := model.NAS(true)
	sys := hw.System{Name: "2x A6000 + 2x 2080Ti", Link: hw.PCIe4(), Host: hw.EPYC7302Host(),
		GPUs: []hw.GPU{hw.RTXA6000(), hw.RTXA6000(), hw.RTX2080Ti(), hw.RTX2080Ti()}}
	batch := 256
	cfg := pipeline.Config{Workload: w, System: sys, GlobalBatch: batch}

	relay := func(name string, plan sched.Plan) metrics.Report {
		prog := sched.TeacherRelaying(plan, true)
		prog.Name = name
		rep, _ := pipeline.Run(cfg, prog)
		return rep
	}

	// Naive: treat the node as homogeneous data parallelism.
	naiveRep := relay("IR equal-split", sched.InternalRelaying(sys.NumDevices(), w.NumBlocks()))

	// AHD assuming equal GPUs: planned for four A6000s, played on the
	// real node.
	equal := hw.Homogeneous("4x A6000 (assumed)", sys.NumDevices(), hw.RTXA6000(), sys.Link, sys.Host)
	homoRep := relay("AHD (homogeneous)", sched.AHD(w, equal, batch))

	// AHD on the real node: per-device costing + proportional shares.
	hetero := sched.AHD(w, sys, batch)
	heteroRep := relay("AHD (hetero-aware)", hetero)

	fmt.Printf("NAS / ImageNet on %s, batch %d\n\n", sys.Name, batch)
	header := []string{"planner", "schedule", "epoch", "vs naive"}
	var rows [][]string
	for _, r := range []metrics.Report{naiveRep, homoRep, heteroRep} {
		rows = append(rows, []string{
			r.Strategy, r.ScheduleDesc,
			metrics.FormatSeconds(r.EpochTime),
			fmt.Sprintf("%.2fx", r.Speedup(naiveRep)),
		})
	}
	fmt.Print(metrics.Table(header, rows))

	fmt.Println("\nPer-member batch shares of the hetero-aware plan:")
	for _, g := range hetero.Groups {
		for j, d := range g.Devices {
			fmt.Printf("  dev%d (%s): %d samples\n", d, sys.GPUs[d].Name, g.MemberBatch(batch, j))
		}
	}
}
