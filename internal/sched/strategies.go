package sched

import (
	"fmt"
	"math"
	"sort"

	"pipebd/internal/hw"
	"pipebd/internal/model"
)

// TRContiguous returns the plain teacher-relaying plan: blocks distributed
// to devices in contiguous runs, one device per group, chosen among the
// (B-1 choose N-1) contiguous partitions to minimize the bottleneck
// device's per-step time, each run priced on the device that would train
// it. This is the paper's "naive distribution" that TR and TR+DPU use
// before AHD is enabled.
func TRContiguous(w model.Workload, sys hw.System, batch int) Plan {
	nb, nDev := w.NumBlocks(), sys.NumDevices()
	if nDev > nb {
		nDev = nb // more devices than blocks: leave the excess idle
	}
	ends, _ := contiguousPartition(nb, nDev, func(d, from, to int) float64 {
		return alone(w, sys, batch, d, seq(from, to)).Step()
	})
	var groups []Group
	b := 0
	for d, end := range ends {
		groups = append(groups, Group{Devices: []int{d}, Blocks: seq(b, end)})
		b = end
	}
	return Plan{Name: "tr-contiguous", Groups: groups}
}

// contiguousPartition splits nb blocks into nDev contiguous segments
// minimizing the maximum segment cost, where segment(d, from, to) is what
// blocks from..to-1 cost on device d, via dynamic programming over the
// (nb-1 choose nDev-1) contiguous partitions: best[d][b] is the minimal
// bottleneck splitting blocks b..nb-1 over devices d..nDev-1. It returns
// each segment's exclusive end index (len nDev, last entry nb) and the
// achieved bottleneck. Shared by the static TRContiguous planner and the
// runtime measured re-planner, so both pick partitions the same way.
func contiguousPartition(nb, nDev int, segment func(d, from, to int) float64) ([]int, float64) {
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
				bottleneck := math.Max(segment(d, b, end), rest)
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
// blocks into equally many contiguous ranges, each group's batch
// apportioned to its members by throughput. A plan costs what its slowest
// member's step costs; the cheapest plan every member of which fits its
// device's memory wins, and if none fits, the widest split (internal
// relaying, the lowest-memory option) is returned. This mirrors §IV-C of
// the paper (exhaustive search over the practical B≈10, N≈4..8 space,
// decided once before training), with the paper's stated future
// direction (§VIII) folded in: every member is priced on its own GPU, so
// a homogeneous system is simply the case of equal ones.
func AHD(w model.Workload, sys hw.System, batch int) Plan {
	nDev, nb := sys.NumDevices(), w.NumBlocks()
	if batch < nDev {
		panic(fmt.Sprintf("sched: AHD cannot share a batch of %d among %d devices", batch, nDev))
	}
	bestCost := math.MaxFloat64
	var best Plan
	for _, dc := range compositions(nDev) {
		for _, bc := range compositions(nb) {
			if len(dc) != len(bc) {
				continue
			}
			plan := hybridPlan(w, sys, batch, dc, bc)
			if cost, fits := bottleneck(w, sys, batch, TeacherRelaying(plan, true)); fits && cost < bestCost-1e-15 {
				bestCost, best = cost, plan
			}
		}
	}
	if best.Groups == nil {
		return hybridPlan(w, sys, batch, []int{nDev}, []int{nb})
	}
	return best
}

// hybridPlan returns the candidate that gives the i-th run of devSizes[i]
// devices the i-th run of blockSizes[i] blocks, each group's batch
// apportioned among its members.
func hybridPlan(w model.Workload, sys hw.System, batch int, devSizes, blockSizes []int) Plan {
	groups := make([]Group, len(devSizes))
	dev, blk := 0, 0
	for i := range groups {
		groups[i] = Group{Devices: seq(dev, dev+devSizes[i]), Blocks: seq(blk, blk+blockSizes[i])}
		groups[i].Shares = apportion(w, sys, batch, groups[i])
		dev += devSizes[i]
		blk += blockSizes[i]
	}
	return Plan{Name: "ahd", Groups: groups}
}

// bottleneck prices a relay program the way pipeline.Run will play it:
// the slowest member's time per step, and whether every member's Memory
// fits its own device.
func bottleneck(w model.Workload, sys hw.System, batch int, prog Program) (float64, bool) {
	var worst float64
	phase := prog.Phases[0]
	for si, st := range phase {
		members, err := Price(w, sys, batch, st)
		if err != nil {
			panic(err) // the planners build only stages whose shares cover the batch
		}
		for _, m := range members {
			if Memory(w, prog.Model, phase, si, m.Batch) > int64(memHeadroom*float64(sys.GPUs[m.Device].MemBytes)) {
				return 0, false
			}
			worst = max(worst, m.Step())
		}
	}
	return worst, true
}

// alone prices the blocks as a relay stage device d plays by itself at
// the global batch: no teacher prefix, nothing to all-reduce.
func alone(w model.Workload, sys hw.System, batch, d int, blocks []int) MemberCost {
	members, err := Price(w, sys, batch, Stage{Group: Group{Devices: []int{d}, Blocks: blocks}, Relayed: blocks[0] > 0})
	if err != nil {
		panic(err) // one member's equal split always covers the batch
	}
	return members[0]
}

// apportion splits the global batch across a group's members in
// proportion to each one's throughput on the group's blocks, measured
// alone at the global batch, in whole samples that sum to the batch.
// Shares that come out equal are returned as nil, so that a plan on equal
// devices the batch divides stays canonical.
func apportion(w model.Workload, sys hw.System, batch int, g Group) []int {
	k := g.Split()
	if k == 1 {
		return nil
	}
	speeds := make([]float64, k)
	var total float64
	for j, d := range g.Devices {
		speeds[j] = 1 / max(alone(w, sys, batch, d, g.Blocks).Compute(), math.SmallestNonzeroFloat64)
		total += speeds[j]
	}
	shares := make([]int, k)
	assigned := 0
	for j := range shares {
		shares[j] = max(1, int(math.Floor(float64(batch)*speeds[j]/total)))
		assigned += shares[j]
	}
	// Distribute the rounding remainder to the fastest members first.
	for assigned < batch {
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
	for assigned > batch {
		largest := 0
		for j := 1; j < k; j++ {
			if shares[j] > shares[largest] {
				largest = j
			}
		}
		shares[largest]--
		assigned--
	}
	for _, s := range shares {
		if s != shares[0] {
			return shares
		}
	}
	return nil
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
