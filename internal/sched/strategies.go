package sched

import (
	"fmt"
	"math"
	"sort"

	"pipebd/internal/hw"
	"pipebd/internal/model"
)

// TRContiguous returns the plain teacher-relaying plan: blocks distributed
// to devices in contiguous runs, one device per group, chosen to minimize
// the bottleneck device's per-step time, each run priced on the device
// that would train it. This is the paper's "naive distribution" that TR
// and TR+DPU use before AHD is enabled; like the paper's TR it ignores
// memory.
func TRContiguous(w model.Workload, sys hw.System, batch int) Plan {
	nb := w.NumBlocks()
	nDev := min(sys.NumDevices(), nb) // more devices than blocks: leave the excess idle
	unsplit := func(_ int, devices, blocks []int) (Group, bool) {
		return Group{Devices: devices, Blocks: blocks}, len(devices) == 1
	}
	plan, _, _ := search(nDev, nb, unsplit, analytic(w, sys, batch, false))
	plan.Name = "tr-contiguous"
	return plan
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
	hybrid := func(_ int, devices, blocks []int) (Group, bool) {
		g := Group{Devices: devices, Blocks: blocks}
		g.Shares = apportion(w, sys, batch, g)
		return g, true
	}
	plan, _, fits := search(nDev, nb, hybrid, analytic(w, sys, batch, true))
	if !fits {
		g, _ := hybrid(0, seq(0, nDev), seq(0, nb))
		plan = Plan{Groups: []Group{g}}
	}
	plan.Name = "ahd"
	return plan
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
		solo, err := Price(w, sys, batch, Stage{Group: Group{Devices: []int{d}, Blocks: g.Blocks}, Relayed: g.Blocks[0] > 0})
		if err != nil {
			panic(err) // one member's equal split always covers the batch
		}
		speeds[j] = 1 / max(solo[0].Compute(), math.SmallestNonzeroFloat64)
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
