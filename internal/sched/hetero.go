package sched

import (
	"fmt"
	"math"

	"pipebd/internal/cost"
	"pipebd/internal/hw"
	"pipebd/internal/model"
)

// Heterogeneous scheduling — the paper's stated future direction
// ("Along with the heterogeneous GPU/servers, this will be our future
// direction", §VIII) implemented as an extension of AHD.
//
// Two things change relative to the homogeneous planner:
//
//  1. Every device is profiled against its own GPU model, so block
//     ranges placed on slower devices are costed honestly.
//  2. Data-parallel groups no longer split the batch evenly: each
//     member's share is proportional to its measured throughput on the
//     group's blocks (rounded to whole samples), so a group mixing an
//     A6000 with a 2080Ti gives the A6000 the larger slice.

// AHDHetero searches hybrid plans for a possibly heterogeneous system:
// every composition of devices into contiguous groups crossed with every
// composition of blocks into contiguous ranges, with per-member batch
// shares apportioned by throughput. Group cost is the slowest member's
// per-step time; the bottleneck group decides the plan. Plans whose
// members exceed their device memory are rejected; if nothing fits, the
// widest split (internal relaying with proportional shares) is returned.
func AHDHetero(w model.Workload, sys hw.System, globalBatch int) Plan {
	nDev := sys.NumDevices()
	nb := w.NumBlocks()
	if globalBatch <= 0 {
		panic("sched: AHDHetero requires a positive batch")
	}

	bestCost := math.MaxFloat64
	var bestGroups []Group
	feasible := false

	devComps := compositions(nDev)
	blockComps := compositions(nb)
	for _, dc := range devComps {
		for _, bc := range blockComps {
			if len(dc) != len(bc) {
				continue
			}
			groups, worst, ok := evaluateHetero(w, sys, globalBatch, dc, bc)
			if !ok {
				continue
			}
			feasible = true
			if worst < bestCost-1e-15 {
				bestCost = worst
				bestGroups = groups
			}
		}
	}
	if !feasible {
		plan := InternalRelaying(nDev, nb)
		plan.Groups[0].Shares = apportion(w, sys, globalBatch, plan.Groups[0])
		plan.Name = "ahd-hetero-fallback"
		return plan
	}
	return Plan{Name: "ahd-hetero", Groups: bestGroups}
}

func evaluateHetero(w model.Workload, sys hw.System, globalBatch int, devSizes, blockSizes []int) ([]Group, float64, bool) {
	groups := make([]Group, len(devSizes))
	dev, blk := 0, 0
	for i := range devSizes {
		groups[i] = Group{Devices: seq(dev, dev+devSizes[i]), Blocks: seq(blk, blk+blockSizes[i])}
		dev += devSizes[i]
		blk += blockSizes[i]
	}
	var worst float64
	for i := range groups {
		groups[i].Shares = apportion(w, sys, globalBatch, groups[i])
		c, ok := heteroGroupCost(w, sys, globalBatch, groups[i])
		if !ok {
			return nil, 0, false
		}
		if c > worst {
			worst = c
		}
	}
	return groups, worst, true
}

// apportion splits the global batch across group members proportionally
// to their throughput on the group's blocks at the global batch. Equal-speed members
// receive an equal split (Shares normalized to nil in that case so
// homogeneous plans stay canonical).
func apportion(w model.Workload, sys hw.System, globalBatch int, g Group) []int {
	k := g.Split()
	if k == 1 {
		return nil
	}
	speeds := make([]float64, k)
	var total float64
	for j, d := range g.Devices {
		t := groupStepTime(w, sys.GPUs[d], g, globalBatch)
		if t <= 0 {
			t = math.SmallestNonzeroFloat64
		}
		speeds[j] = 1 / t
		total += speeds[j]
	}
	shares := make([]int, k)
	assigned := 0
	for j := range shares {
		shares[j] = int(math.Floor(float64(globalBatch) * speeds[j] / total))
		if shares[j] < 1 {
			shares[j] = 1
		}
		assigned += shares[j]
	}
	// Distribute the rounding remainder to the fastest members first.
	for assigned < globalBatch {
		best := 0
		for j := 1; j < k; j++ {
			if speeds[j] > speeds[best] {
				best = j
			}
		}
		shares[best]++
		speeds[best] = 0 // round-robin over descending speed
		assigned++
	}
	for assigned > globalBatch {
		worstIdx := 0
		for j := 1; j < k; j++ {
			if shares[j] > shares[worstIdx] {
				worstIdx = j
			}
		}
		shares[worstIdx]--
		assigned--
	}
	// Canonicalize: equal shares mean nil.
	equal := true
	for _, s := range shares {
		if s != shares[0] {
			equal = false
		}
	}
	if equal && globalBatch%k == 0 {
		return nil
	}
	return shares
}

// groupStepTime measures one device's per-step time over a group's blocks
// at the given local batch (teacher forward + student training).
func groupStepTime(w model.Workload, gpu hw.GPU, g Group, batch int) float64 {
	var t float64
	for _, b := range g.Blocks {
		t += cost.BlockFwdTime(gpu, w.Teacher.Net.Blocks[b], batch)
		t += cost.BlockTrainTime(gpu, w.Student.Net.Blocks[b], batch)
	}
	return t
}

// heteroGroupCost returns the group's bottleneck member time plus exposed
// all-reduce and update, and checks per-member memory feasibility.
func heteroGroupCost(w model.Workload, sys hw.System, globalBatch int, g Group) (float64, bool) {
	k := g.Split()
	var gradBytes int64
	for _, b := range g.Blocks {
		gradBytes += w.Student.Net.Blocks[b].ParamBytes()
	}
	var worst float64
	for j, d := range g.Devices {
		gpu := sys.GPUs[d]
		lb := g.MemberBatch(globalBatch, j)
		var compute, bwd, update float64
		var mem int64
		for _, b := range g.Blocks {
			tb := w.Teacher.Net.Blocks[b]
			sb := w.Student.Net.Blocks[b]
			compute += cost.BlockFwdTime(gpu, tb, lb)
			compute += cost.BlockFwdTime(gpu, sb, lb)
			bw := cost.BlockBwdTime(gpu, sb, lb)
			compute += bw
			bwd += bw
			update += cost.UpdateTime(gpu, sb)
			mem += cost.TeacherBlockMemory(tb, lb) + cost.StudentBlockMemory(sb, lb)
		}
		mem += w.Teacher.Net.Blocks[g.Blocks[0]].InBytes(lb) +
			w.Teacher.Net.Blocks[g.Blocks[len(g.Blocks)-1]].OutBytes(lb)
		if mem > int64(memHeadroom*float64(gpu.MemBytes)) {
			return 0, false
		}
		t := compute + sys.Link.ExposedAllReduceTime(gradBytes, k, bwd) + update
		if t > worst {
			worst = t
		}
	}
	return worst, true
}

// HeteroSystem builds a mixed system from per-device GPU models sharing
// one link and host — a convenience for heterogeneous experiments.
func HeteroSystem(name string, link hw.Link, host hw.Host, gpus ...hw.GPU) hw.System {
	if len(gpus) == 0 {
		panic(fmt.Sprintf("sched: hetero system %q needs GPUs", name))
	}
	return hw.System{Name: name, GPUs: gpus, Link: link, Host: host}
}
