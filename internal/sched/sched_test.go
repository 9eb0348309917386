package sched

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"pipebd/internal/hw"
	"pipebd/internal/model"
)

// mixedSystem returns 2x A6000 + 2x 2080Ti on a shared PCIe 4 link.
func mixedSystem() hw.System {
	return hw.System{Name: "2xA6000+2x2080Ti", Link: hw.PCIe4(), Host: hw.EPYC7302Host(),
		GPUs: []hw.GPU{hw.RTXA6000(), hw.RTXA6000(), hw.RTX2080Ti(), hw.RTX2080Ti()}}
}

func TestPlanValidate(t *testing.T) {
	good := Plan{Name: "g", Groups: []Group{
		{Devices: []int{0}, Blocks: []int{0, 1}},
		{Devices: []int{1, 2}, Blocks: []int{2}},
		{Devices: []int{3}, Blocks: []int{3, 4, 5}},
	}}
	if err := good.Validate(4, 6); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	cases := map[string]Plan{
		"missing device": {Groups: []Group{{Devices: []int{0}, Blocks: []int{0, 1, 2, 3, 4, 5}}}},
		"block gap": {Groups: []Group{
			{Devices: []int{0, 1}, Blocks: []int{0}},
			{Devices: []int{2, 3}, Blocks: []int{2, 3, 4, 5}},
		}},
		"out of order devices": {Groups: []Group{
			{Devices: []int{1}, Blocks: []int{0, 1, 2}},
			{Devices: []int{0, 2, 3}, Blocks: []int{3, 4, 5}},
		}},
		"empty group": {Groups: []Group{
			{Devices: []int{0, 1, 2, 3}, Blocks: nil},
		}},
	}
	for name, p := range cases {
		if err := p.Validate(4, 6); err == nil {
			t.Errorf("%s: invalid plan accepted", name)
		}
	}
}

func TestPlanDescribe(t *testing.T) {
	p := Plan{Groups: []Group{
		{Devices: []int{0, 1, 2}, Blocks: []int{0, 1, 2}},
		{Devices: []int{3}, Blocks: []int{3, 4, 5}},
	}}
	got := p.Describe()
	want := "dev0-2: B0-B2 (3-way DP) | dev3: B3-B5"
	if got != want {
		t.Fatalf("Describe = %q, want %q", got, want)
	}
}

func TestPlanGroupOf(t *testing.T) {
	p := InternalRelaying(4, 6)
	if p.GroupOf(2) != 0 {
		t.Fatal("all devices are in group 0 under internal relaying")
	}
	if p.GroupOf(7) != -1 {
		t.Fatal("unknown device should return -1")
	}
}

func TestInternalRelayingShape(t *testing.T) {
	p := InternalRelaying(4, 6)
	if err := p.Validate(4, 6); err != nil {
		t.Fatal(err)
	}
	if len(p.Groups) != 1 || p.Groups[0].Split() != 4 || len(p.Groups[0].Blocks) != 6 {
		t.Fatalf("bad IR plan: %+v", p)
	}
}

// measuredAt returns what every member of cur measures when block b
// costs costs[b] wherever it runs.
func measuredAt(cur Plan, costs []float64) map[int][]float64 {
	busy := make(map[int][]float64)
	for _, g := range cur.Groups {
		for _, d := range g.Devices {
			for _, b := range g.Blocks {
				busy[d] = append(busy[d], costs[b])
			}
		}
	}
	return busy
}

// endsOf returns each group's exclusive block end.
func endsOf(p Plan) []int {
	var ends []int
	for _, g := range p.Groups {
		ends = append(ends, g.Blocks[len(g.Blocks)-1]+1)
	}
	return ends
}

// unsplit returns the one-device-per-group plan whose groups end at ends.
func unsplit(ends ...int) Plan {
	var p Plan
	b := 0
	for d, end := range ends {
		p.Groups = append(p.Groups, Group{Devices: []int{d}, Blocks: seq(b, end)})
		b = end
	}
	return p
}

func TestTRContiguousKnownPartition(t *testing.T) {
	// Block costs 10,1,1,1,1,10 over 3 devices should isolate the two
	// heavy blocks: {0},{1..4},{5}.
	cur := unsplit(2, 4, 6)
	next, eval, err := Replan(cur, measuredAt(cur, []float64{10, 1, 1, 1, 1, 10}))
	if err != nil {
		t.Fatal(err)
	}
	if ends, want := endsOf(next), []int{1, 5, 6}; !reflect.DeepEqual(ends, want) || eval.Proposed != 10 {
		t.Fatalf("segments end at %v with bottleneck %v, want %v and 10", ends, eval.Proposed, want)
	}
}

func TestTRContiguousMoreDevicesThanBlocks(t *testing.T) {
	w := model.NAS(false)
	w.Teacher.Net.Blocks, w.Student.Net.Blocks = w.Teacher.Net.Blocks[:2], w.Student.Net.Blocks[:2]
	plan := TRContiguous(w, hw.A6000x4(), 256)
	// Only two devices can receive blocks; plan covers 2 devices.
	if err := plan.Validate(2, 2); err != nil {
		t.Fatal(err)
	}
}

func TestTRContiguousMinimizesBottleneck(t *testing.T) {
	// Compare against brute force on additive costs.
	cur := unsplit(3, 4, 5, 6)
	for trial := 0; trial < 30; trial++ {
		costs := make([]float64, 6)
		for i := range costs {
			costs[i] = float64((trial*7+i*13)%17 + 1)
		}
		plan, eval, err := Replan(cur, measuredAt(cur, costs))
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(4, 6); err != nil {
			t.Fatal(err)
		}
		want := bruteForceBottleneck(costs, 4)
		if math.Abs(eval.Proposed-want) > 1e-9 || math.Abs(planBottleneck(plan, costs)-want) > 1e-9 {
			t.Fatalf("trial %d: bottleneck %v, optimal %v (costs %v)", trial, eval.Proposed, want, costs)
		}
	}
}

func TestTRContiguousPricesEachRunOnItsDevice(t *testing.T) {
	// A device at a third of its speed must get fewer blocks than it
	// gets healthy, and the plan made for the sick system must play on
	// it no slower than the plan made for the healthy one.
	w := model.NAS(false)
	healthy := hw.A6000x4()
	sick := hw.A6000x4()
	sick.GPUs[3].PeakFLOPS /= 3
	sick.GPUs[3].MemBandwidth /= 3
	blind, aware := TRContiguous(w, healthy, 256), TRContiguous(w, sick, 256)
	if got, was := len(aware.Groups[3].Blocks), len(blind.Groups[3].Blocks); got >= was {
		t.Fatalf("throttled device 3 keeps %d blocks (healthy: %d): %s", got, was, aware.Describe())
	}
	blindCost, _ := played(w, sick, 256, blind)
	awareCost, _ := played(w, sick, 256, aware)
	if awareCost > blindCost {
		t.Fatalf("planning on the sick system gives bottleneck %v, planning blind %v", awareCost, blindCost)
	}
}

// played returns the bottleneck pipeline.Run plays plan at and whether
// every member fits its device.
func played(w model.Workload, sys hw.System, batch int, plan Plan) (float64, bool) {
	costs, fits := analytic(w, sys, batch, true)(plan)
	if !fits {
		return 0, false
	}
	return bottleneck(costs), true
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

func planBottleneck(p Plan, costs []float64) float64 {
	var worst float64
	for _, g := range p.Groups {
		var s float64
		for _, b := range g.Blocks {
			s += costs[b]
		}
		if s > worst {
			worst = s
		}
	}
	return worst
}

func bruteForceBottleneck(costs []float64, nDev int) float64 {
	n := len(costs)
	best := math.MaxFloat64
	// Choose cut positions via bitmask over n-1 gaps.
	for mask := 0; mask < 1<<(n-1); mask++ {
		parts := 1
		for i := 0; i < n-1; i++ {
			if mask&(1<<i) != 0 {
				parts++
			}
		}
		if parts > nDev {
			continue
		}
		var worst, cur float64
		for i := 0; i < n; i++ {
			cur += costs[i]
			if i == n-1 || mask&(1<<i) != 0 {
				if cur > worst {
					worst = cur
				}
				cur = 0
			}
		}
		if worst < best {
			best = worst
		}
	}
	return best
}

// TestAHDPlanPicks pins the planner's picks — groups and batch shares —
// on the four paper workloads, both paper systems and three batches to
// what the two planners this one replaced picked (they agreed on every
// row; only the heterogeneous one emitted shares).
func TestAHDPlanPicks(t *testing.T) {
	for _, c := range []struct {
		workload, system string
		batch            int
		tr, ahd, shares  string
	}{
		{"nas-cifar10", "a6000", 128, "dev0: B0 | dev1: B1 | dev2: B2-B3 | dev3: B4-B5", "dev0: B0 | dev1: B1 | dev2: B2-B3 | dev3: B4-B5", "[[] [] [] []]"},
		{"nas-cifar10", "a6000", 256, "dev0: B0 | dev1: B1 | dev2: B2-B3 | dev3: B4-B5", "dev0-2: B0-B2 (3-way DP) | dev3: B3-B5", "[[86 85 85] []]"},
		{"nas-cifar10", "a6000", 512, "dev0: B0 | dev1: B1 | dev2: B2-B3 | dev3: B4-B5", "dev0-2: B0-B2 (3-way DP) | dev3: B3-B5", "[[171 171 170] []]"},
		{"nas-cifar10", "2080ti", 128, "dev0: B0 | dev1: B1 | dev2: B2-B3 | dev3: B4-B5", "dev0-1: B0-B1 (2-way DP) | dev2: B2-B3 | dev3: B4-B5", "[[] [] []]"},
		{"nas-cifar10", "2080ti", 256, "dev0: B0 | dev1: B1 | dev2: B2-B3 | dev3: B4-B5", "dev0-1: B0-B1 (2-way DP) | dev2-3: B2-B5 (2-way DP)", "[[] []]"},
		{"nas-cifar10", "2080ti", 512, "dev0: B0 | dev1: B1 | dev2: B2-B3 | dev3: B4-B5", "dev0-1: B0-B1 (2-way DP) | dev2-3: B2-B5 (2-way DP)", "[[] []]"},
		{"nas-imagenet", "a6000", 128, "dev0: B0 | dev1: B1 | dev2: B2 | dev3: B3-B5", "dev0-1: B0 (2-way DP) | dev2-3: B1-B5 (2-way DP)", "[[] []]"},
		{"nas-imagenet", "a6000", 256, "dev0: B0 | dev1: B1 | dev2: B2 | dev3: B3-B5", "dev0-1: B0 (2-way DP) | dev2-3: B1-B5 (2-way DP)", "[[] []]"},
		{"nas-imagenet", "a6000", 512, "dev0: B0 | dev1: B1 | dev2: B2 | dev3: B3-B5", "dev0-1: B0 (2-way DP) | dev2-3: B1-B5 (2-way DP)", "[[] []]"},
		{"nas-imagenet", "2080ti", 128, "dev0: B0 | dev1: B1 | dev2: B2-B3 | dev3: B4-B5", "dev0-2: B0-B2 (3-way DP) | dev3: B3-B5", "[[43 43 42] []]"},
		{"nas-imagenet", "2080ti", 256, "dev0: B0 | dev1: B1 | dev2: B2-B3 | dev3: B4-B5", "dev0-1: B0 (2-way DP) | dev2-3: B1-B5 (2-way DP)", "[[] []]"},
		{"nas-imagenet", "2080ti", 512, "dev0: B0 | dev1: B1 | dev2: B2-B3 | dev3: B4-B5", "dev0-3: B0-B5 (4-way DP)", "[[]]"},
		{"compression-cifar10", "a6000", 128, "dev0: B0-B1 | dev1: B2 | dev2: B3 | dev3: B4-B5", "dev0: B0-B1 | dev1: B2 | dev2-3: B3-B5 (2-way DP)", "[[] [] []]"},
		{"compression-cifar10", "a6000", 256, "dev0: B0-B1 | dev1: B2 | dev2: B3 | dev3: B4-B5", "dev0-1: B0-B2 (2-way DP) | dev2-3: B3-B5 (2-way DP)", "[[] []]"},
		{"compression-cifar10", "a6000", 512, "dev0: B0-B1 | dev1: B2 | dev2: B3 | dev3: B4-B5", "dev0-1: B0-B2 (2-way DP) | dev2-3: B3-B5 (2-way DP)", "[[] []]"},
		{"compression-cifar10", "2080ti", 128, "dev0: B0-B1 | dev1: B2 | dev2: B3 | dev3: B4-B5", "dev0-1: B0-B2 (2-way DP) | dev2-3: B3-B5 (2-way DP)", "[[] []]"},
		{"compression-cifar10", "2080ti", 256, "dev0: B0-B1 | dev1: B2 | dev2: B3 | dev3: B4-B5", "dev0-1: B0-B2 (2-way DP) | dev2-3: B3-B5 (2-way DP)", "[[] []]"},
		{"compression-cifar10", "2080ti", 512, "dev0: B0-B1 | dev1: B2 | dev2: B3 | dev3: B4-B5", "dev0-3: B0-B5 (4-way DP)", "[[]]"},
		{"compression-imagenet", "a6000", 128, "dev0: B0-B1 | dev1: B2 | dev2: B3 | dev3: B4-B5", "dev0-3: B0-B5 (4-way DP)", "[[]]"},
		{"compression-imagenet", "a6000", 256, "dev0: B0-B1 | dev1: B2 | dev2: B3 | dev3: B4-B5", "dev0-3: B0-B5 (4-way DP)", "[[]]"},
		{"compression-imagenet", "a6000", 512, "dev0: B0-B1 | dev1: B2 | dev2: B3 | dev3: B4-B5", "dev0-3: B0-B5 (4-way DP)", "[[]]"},
		{"compression-imagenet", "2080ti", 128, "dev0: B0-B1 | dev1: B2 | dev2: B3 | dev3: B4-B5", "dev0-3: B0-B5 (4-way DP)", "[[]]"},
		{"compression-imagenet", "2080ti", 256, "dev0: B0-B1 | dev1: B2 | dev2: B3 | dev3: B4-B5", "dev0-3: B0-B5 (4-way DP)", "[[]]"},
		{"compression-imagenet", "2080ti", 512, "dev0: B0-B1 | dev1: B2 | dev2: B3 | dev3: B4-B5", "dev0-3: B0-B5 (4-way DP)", "[[]]"},
	} {
		w, err := model.ByName(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := hw.Preset(c.system)
		if err != nil {
			t.Fatal(err)
		}
		if got := TRContiguous(w, sys, c.batch).Describe(); got != c.tr {
			t.Errorf("%s/%s/%d: TR picks %q, want %q", c.workload, c.system, c.batch, got, c.tr)
		}
		plan := AHD(w, sys, c.batch)
		var shares [][]int
		for _, g := range plan.Groups {
			shares = append(shares, g.Shares)
		}
		if got := plan.Describe(); got != c.ahd || fmt.Sprint(shares) != c.shares {
			t.Errorf("%s/%s/%d: AHD picks %q %v, want %q %s", c.workload, c.system, c.batch, got, shares, c.ahd, c.shares)
		}
	}
}

// checkAHDOracle checks AHD's pick on one configuration against the
// whole space it searches: the plan is valid and plays every sample, no
// enumerated candidate that fits has a lower bottleneck — so the pick is
// no worse than plain teacher relaying's contiguous plan — and it is the
// widest split when, and only when, no candidate fits.
func checkAHDOracle(t *testing.T, w model.Workload, sys hw.System, batch int) {
	t.Helper()
	nDev, nb := sys.NumDevices(), w.NumBlocks()
	plan := AHD(w, sys, batch)
	if err := plan.Validate(nDev, nb); err != nil {
		t.Fatalf("%s on %s: %v", w.Name, sys.Name, err)
	}
	for _, g := range plan.Groups {
		if err := g.ValidateShares(batch); err != nil {
			t.Fatalf("%s on %s: %v", w.Name, sys.Name, err)
		}
	}
	picked, pickFits := played(w, sys, batch, plan)
	if !pickFits && len(plan.Groups) != 1 {
		t.Fatalf("%s on %s: the pick %s does not fit and is not the fallback", w.Name, sys.Name, plan.Describe())
	}
	for _, dc := range compositions(nDev) {
		for _, bc := range compositions(nb) {
			if len(dc) != len(bc) {
				continue
			}
			cand := hybridPlan(w, sys, batch, dc, bc)
			if c, fits := played(w, sys, batch, cand); fits && (!pickFits || c < picked-1e-12) {
				t.Errorf("%s on %s: %s fits with bottleneck %v, the pick %s has %v (fits: %v)",
					w.Name, sys.Name, cand.Describe(), c, plan.Describe(), picked, pickFits)
			}
		}
	}
	tr := TRContiguous(w, sys, batch)
	if c, fits := played(w, sys, batch, tr); fits && picked > c+1e-12 {
		t.Errorf("%s on %s: AHD bottleneck %v worse than TR's %v", w.Name, sys.Name, picked, c)
	}
}

func TestAHDValidAndAtLeastAsGoodAsTR(t *testing.T) {
	for _, w := range model.AllWorkloads() {
		for _, sys := range []hw.System{hw.A6000x4(), hw.RTX2080Tix4()} {
			checkAHDOracle(t, w, sys, 256)
		}
	}
}

func TestAHDHeteroProducesValidPlan(t *testing.T) {
	for _, w := range model.AllWorkloads() {
		checkAHDOracle(t, w, mixedSystem(), 256)
	}
}

// checkSharesBlockZero checks that AHD shares the ImageNet NAS workload's
// dominant block 0 (Fig. 5) across devices.
func checkSharesBlockZero(t *testing.T, sys hw.System) {
	t.Helper()
	plan := AHD(model.NAS(true), sys, 256)
	if first := plan.Groups[0]; first.Blocks[0] != 0 || first.Split() < 2 {
		t.Fatalf("%s: expected block 0 shared by >=2 devices, got %s", sys.Name, plan.Describe())
	}
}

func TestAHDSplitsDominantBlockOnImageNet(t *testing.T) { checkSharesBlockZero(t, hw.A6000x4()) }

func TestAHDHeteroSplitsDominantBlock(t *testing.T) { checkSharesBlockZero(t, mixedSystem()) }

// shrunk returns sys with every device's memory cut to gib GiB.
func shrunk(sys hw.System, gib int64) hw.System {
	sys.GPUs = append([]hw.GPU(nil), sys.GPUs...)
	for i := range sys.GPUs {
		sys.GPUs[i].MemBytes = gib << 30
	}
	return sys
}

func TestAHDRespectsMemoryLimit(t *testing.T) {
	// 6 GiB is too small for block 0 at the full batch: single-device
	// groups become infeasible and AHD must pick a wider split that
	// fits, never an infeasible plan.
	w := model.NAS(true)
	for _, sys := range []hw.System{shrunk(hw.A6000x4(), 6), shrunk(mixedSystem(), 6)} {
		checkAHDOracle(t, w, sys, 256)
		if plan := AHD(w, sys, 256); plan.Groups[0].Split() < 2 {
			t.Fatalf("%s at 6 GiB: block 0 alone on a device: %s", sys.Name, plan.Describe())
		}
	}
}

func TestAHDHeteroMemoryFallback(t *testing.T) {
	// Nothing fits 2 GiB: the fallback is the widest split, the
	// lowest-memory option, and it still plays every sample.
	w := model.NAS(true)
	for _, sys := range []hw.System{shrunk(hw.A6000x4(), 2), shrunk(mixedSystem(), 2)} {
		plan := AHD(w, sys, 256)
		if err := plan.Validate(4, w.NumBlocks()); err != nil {
			t.Fatal(err)
		}
		if len(plan.Groups) != 1 {
			t.Fatalf("%s: fallback should be the widest split, got %s", sys.Name, plan.Describe())
		}
		if err := plan.Groups[0].ValidateShares(256); err != nil {
			t.Fatal(err)
		}
		if _, fits := played(w, sys, 256, plan); fits {
			t.Fatalf("%s: the fallback fits, so something did", sys.Name)
		}
	}
}

func TestApportionFavorsFasterDevices(t *testing.T) {
	w := model.NAS(false)
	sys := mixedSystem()
	// A group spanning one A6000 (device 1) and one 2080Ti (device 2).
	g := Group{Devices: []int{1, 2}, Blocks: []int{0, 1, 2}}
	shares := apportion(w, sys, 256, g)
	if shares == nil {
		t.Fatal("heterogeneous members must receive unequal shares")
	}
	if shares[0] <= shares[1] {
		t.Fatalf("A6000 share %d should exceed 2080Ti share %d", shares[0], shares[1])
	}
	if shares[0]+shares[1] != 256 {
		t.Fatalf("shares %v must sum to the batch", shares)
	}
}

func TestApportionHomogeneousIsCanonical(t *testing.T) {
	w := model.NAS(false)
	sys := hw.A6000x4()
	if shares := apportion(w, sys, 256, Group{Devices: []int{0, 1}, Blocks: []int{0, 1}}); shares != nil {
		t.Fatalf("equal-speed members should get the canonical nil split, got %v", shares)
	}
	// A split the batch does not divide still plays every sample.
	shares := apportion(w, sys, 256, Group{Devices: []int{0, 1, 2}, Blocks: []int{0, 1}})
	if !reflect.DeepEqual(shares, []int{86, 85, 85}) {
		t.Fatalf("a 3-way split of 256 on equal devices is %v, want [86 85 85]", shares)
	}
}

func TestMemberBatch(t *testing.T) {
	g := Group{Devices: []int{0, 1}, Blocks: []int{0}}
	if g.MemberBatch(256, 0) != 128 || g.MemberBatch(256, 1) != 128 {
		t.Fatal("nil shares must split evenly")
	}
	if err := g.ValidateShares(255); err == nil {
		t.Fatal("an equal split the batch does not divide drops a sample and must fail validation")
	}
	g.Shares = []int{160, 96}
	if g.MemberBatch(256, 0) != 160 || g.MemberBatch(256, 1) != 96 {
		t.Fatal("explicit shares must be honoured")
	}
	if err := g.ValidateShares(256); err != nil {
		t.Fatal(err)
	}
	g.Shares = []int{200, 96}
	if err := g.ValidateShares(256); err == nil {
		t.Fatal("over-subscribed shares must fail validation")
	}
	g.Shares = []int{256, 0}
	if err := g.ValidateShares(256); err == nil {
		t.Fatal("zero share must fail validation")
	}
	g.Shares = []int{256}
	if err := g.ValidateShares(256); err == nil {
		t.Fatal("share count mismatch must fail validation")
	}
}

func TestCompositionsCount(t *testing.T) {
	// Number of compositions of n is 2^(n-1).
	for n := 1; n <= 6; n++ {
		got := len(compositions(n))
		want := 1 << (n - 1)
		if got != want {
			t.Fatalf("compositions(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestLPTPackBalances(t *testing.T) {
	costs := []float64{10, 9, 8, 7, 6, 5, 4}
	assign := LPTPack(costs, 3)
	loads := make([]float64, 3)
	seen := map[int]bool{}
	for d, tasks := range assign {
		for _, u := range tasks {
			if seen[u] {
				t.Fatalf("task %d assigned twice", u)
			}
			seen[u] = true
			loads[d] += costs[u]
		}
	}
	if len(seen) != len(costs) {
		t.Fatal("not all tasks assigned")
	}
	// LPT guarantees max load <= (4/3 - 1/3m) * optimal; for this input
	// optimal = 17, LPT achieves <= 21.
	for _, l := range loads {
		if l > 21 {
			t.Fatalf("load %v exceeds LPT bound", l)
		}
	}
}

func TestLPTPackProperty(t *testing.T) {
	f := func(raw []float64) bool {
		costs := make([]float64, len(raw))
		var total float64
		for i, v := range raw {
			costs[i] = math.Abs(math.Mod(v, 100)) + 0.001
			total += costs[i]
		}
		if len(costs) == 0 {
			return true
		}
		assign := LPTPack(costs, 4)
		// Every task assigned exactly once.
		count := 0
		var maxLoad, maxCost float64
		for _, tasks := range assign {
			var load float64
			for _, u := range tasks {
				load += costs[u]
				count++
				if costs[u] > maxCost {
					maxCost = costs[u]
				}
			}
			if load > maxLoad {
				maxLoad = load
			}
		}
		if count != len(costs) {
			return false
		}
		// Classic LPT bound: makespan <= total/m + max task.
		return maxLoad <= total/4+maxCost+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
