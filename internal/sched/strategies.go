package sched

import (
	"fmt"
	"math"
	"sort"

	"pipebd/internal/hw"
	"pipebd/internal/profilegen"
)

// TRContiguous returns the plain teacher-relaying plan: blocks distributed
// to devices in contiguous runs, one device per group, chosen among the
// (B-1 choose N-1) contiguous partitions to minimize the bottleneck
// device's per-step compute time. This is the paper's "naive distribution"
// that TR and TR+DPU use before AHD is enabled.
func TRContiguous(p profilegen.Profile, nDev int) Plan {
	nb := p.NumBlocks()
	if nDev > nb {
		nDev = nb // more devices than blocks: leave the excess idle
	}
	blockCost := make([]float64, nb)
	for b := 0; b < nb; b++ {
		blockCost[b] = p.StepTime(b, 1) + p.Update[b]
	}
	ends, _ := contiguousPartition(blockCost, nDev)
	var groups []Group
	b := 0
	for d, end := range ends {
		groups = append(groups, Group{Devices: []int{d}, Blocks: seq(b, end)})
		b = end
	}
	return Plan{Name: "tr-contiguous", Groups: groups}
}

// contiguousPartition splits nb block costs into nDev contiguous
// segments minimizing the maximum segment sum, via dynamic programming
// over the (nb-1 choose nDev-1) contiguous partitions: best[d][b] is the
// minimal bottleneck splitting blocks b..nb-1 over devices d..nDev-1. It
// returns each segment's exclusive end index (len nDev, last entry nb)
// and the achieved bottleneck. Shared by the static TRContiguous planner
// and the runtime measured re-planner, so both pick partitions the same
// way.
func contiguousPartition(blockCost []float64, nDev int) ([]int, float64) {
	nb := len(blockCost)
	prefix := make([]float64, nb+1)
	for b := 0; b < nb; b++ {
		prefix[b+1] = prefix[b] + blockCost[b]
	}
	segment := func(from, to int) float64 { return prefix[to] - prefix[from] }

	const inf = math.MaxFloat64
	best := make([][]float64, nDev+1)
	choice := make([][]int, nDev+1)
	for d := range best {
		best[d] = make([]float64, nb+1)
		choice[d] = make([]int, nb+1)
		for b := range best[d] {
			best[d][b] = inf
		}
	}
	best[nDev][nb] = 0
	for d := nDev - 1; d >= 0; d-- {
		for b := nb - 1; b >= 0; b-- {
			remainingDevices := nDev - d
			remainingBlocks := nb - b
			if remainingBlocks < remainingDevices {
				continue // not enough blocks for the rest
			}
			for end := b + 1; end <= nb-(remainingDevices-1); end++ {
				rest := best[d+1][end]
				if rest == inf {
					continue
				}
				bottleneck := math.Max(segment(b, end), rest)
				if bottleneck < best[d][b] {
					best[d][b] = bottleneck
					choice[d][b] = end
				}
			}
		}
	}
	if best[0][0] == inf {
		panic(fmt.Sprintf("sched: no contiguous partition of %d blocks over %d devices", nb, nDev))
	}
	ends := make([]int, nDev)
	b := 0
	for d := 0; d < nDev; d++ {
		ends[d] = choice[d][b]
		b = ends[d]
	}
	return ends, best[0][0]
}

// memHeadroom is the usable fraction of device memory (frameworks reserve
// some for workspace and fragmentation).
const memHeadroom = 0.92

// AHD searches hybrid plans exhaustively: every composition of the N
// devices into contiguous groups combined with every composition of the B
// blocks into equally many contiguous ranges. Group cost is estimated
// from the profiled table as the group's per-step compute plus exposed
// all-reduce plus update time; the plan minimizing the bottleneck group
// that also fits device memory wins. This mirrors §IV-C of the paper
// (exhaustive search over the practical B≈10, N≈4..8 space, decided once
// before training).
func AHD(p profilegen.Profile, sys hw.System) Plan {
	nDev := sys.NumDevices()
	nb := p.NumBlocks()
	if nDev > p.MaxSplit {
		panic(fmt.Sprintf("sched: AHD needs profile with MaxSplit >= %d devices, have %d", nDev, p.MaxSplit))
	}

	bestCost := math.MaxFloat64
	var bestGroups []Group
	feasibleFound := false

	devComps := compositions(nDev)
	blockComps := compositions(nb)
	for _, dc := range devComps {
		for _, bc := range blockComps {
			if len(dc) != len(bc) {
				continue
			}
			groups, cost, fits := evaluate(p, sys, dc, bc)
			if !fits {
				continue
			}
			feasibleFound = true
			if cost < bestCost-1e-15 {
				bestCost = cost
				bestGroups = groups
			}
		}
	}
	if !feasibleFound {
		// No plan fits memory; fall back to the widest splitting (pure
		// data parallelism over all blocks), the lowest-memory option.
		return InternalRelaying(nDev, nb)
	}
	return Plan{Name: "ahd", Groups: bestGroups}
}

// evaluate builds the groups for one (device sizes, block sizes)
// composition pair and estimates the bottleneck group cost.
func evaluate(p profilegen.Profile, sys hw.System, devSizes, blockSizes []int) ([]Group, float64, bool) {
	groups := make([]Group, len(devSizes))
	dev, blk := 0, 0
	for i := range devSizes {
		groups[i] = Group{Devices: seq(dev, dev+devSizes[i]), Blocks: seq(blk, blk+blockSizes[i])}
		dev += devSizes[i]
		blk += blockSizes[i]
	}
	var bottleneck float64
	for _, g := range groups {
		cost, fits := groupCost(p, sys, g)
		if !fits {
			return nil, 0, false
		}
		if cost > bottleneck {
			bottleneck = cost
		}
	}
	return groups, bottleneck, true
}

// groupCost estimates one group's steady-state per-step time and checks
// per-device memory feasibility.
func groupCost(p profilegen.Profile, sys hw.System, g Group) (float64, bool) {
	k := g.Split()
	var compute, bwd, update float64
	var gradBytes, mem int64
	for _, b := range g.Blocks {
		compute += p.StepTime(b, k)
		bwd += p.StudentBwd[b][k-1]
		update += p.Update[b]
		gradBytes += p.StudentParamBytes[b]
		mem += p.TeacherMem[b][k-1] + p.StudentMem[b][k-1]
	}
	if mem > int64(memHeadroom*float64(sys.GPUs[g.Devices[0]].MemBytes)) {
		return 0, false
	}
	return compute + sys.Link.ExposedAllReduceTime(gradBytes, k, bwd) + update, true
}

// compositions returns all ordered compositions of n (ways of writing n
// as an ordered sum of positive integers), e.g. 3 -> [3],[1,2],[2,1],[1,1,1].
func compositions(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for first := 1; first <= n; first++ {
		for _, rest := range compositions(n - first) {
			comp := append([]int{first}, rest...)
			out = append(out, comp)
		}
	}
	return out
}

// LPTPack distributes task costs over nDev devices with longest-
// processing-time-first greedy bin packing (the scheduling used by the LS
// baseline [7]). It returns per-device task-index lists, each sorted
// ascending.
func LPTPack(costs []float64, nDev int) [][]int {
	type task struct {
		idx  int
		cost float64
	}
	tasks := make([]task, len(costs))
	for i, c := range costs {
		tasks[i] = task{i, c}
	}
	sort.SliceStable(tasks, func(a, b int) bool { return tasks[a].cost > tasks[b].cost })

	loads := make([]float64, nDev)
	assign := make([][]int, nDev)
	for _, t := range tasks {
		best := 0
		for d := 1; d < nDev; d++ {
			if loads[d] < loads[best] {
				best = d
			}
		}
		loads[best] += t.cost
		assign[best] = append(assign[best], t.idx)
	}
	for d := range assign {
		sort.Ints(assign[d])
	}
	return assign
}
