package sched

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestReplanShedsOverloadedDevice: with measured costs that make the
// first group the bottleneck, Replan must move the boundary, keep the
// current device order, cover the blocks contiguously, and report the
// improvement against the measured current bottleneck.
func TestReplanShedsOverloadedDevice(t *testing.T) {
	cur := Plan{Name: "lop", Groups: []Group{
		{Devices: []int{5}, Blocks: []int{0, 1}},
		{Devices: []int{2}, Blocks: []int{2}},
		{Devices: []int{7}, Blocks: []int{3}},
	}}
	// Block 0 measured 4x its siblings: current bottleneck 4+1=5, best
	// contiguous split [0][1,2][3] (or [0][1][2,3]) has bottleneck 4.
	costs := []float64{4, 1, 1, 1}
	next, eval, err := Replan(cur, measuredAt(cur, costs))
	if err != nil {
		t.Fatalf("Replan: %v", err)
	}
	if eval.Current != 5 || eval.Proposed != 4 {
		t.Fatalf("eval = %+v, want Current 5 Proposed 4", eval)
	}
	if imp := eval.Improvement(); imp != 0.2 {
		t.Fatalf("Improvement() = %v, want 0.2", imp)
	}
	if len(next.Groups) != 3 {
		t.Fatalf("proposed plan has %d groups, want 3", len(next.Groups))
	}
	wantDevs := []int{5, 2, 7}
	b := 0
	for gi, g := range next.Groups {
		if len(g.Devices) != 1 || g.Devices[0] != wantDevs[gi] {
			t.Fatalf("group %d devices = %v, want [%d] (device order must survive)", gi, g.Devices, wantDevs[gi])
		}
		for _, blk := range g.Blocks {
			if blk != b {
				t.Fatalf("group %d blocks %v break contiguity at %d", gi, g.Blocks, b)
			}
			b++
		}
	}
	if b != len(costs) {
		t.Fatalf("proposed plan covers %d blocks, want %d", b, len(costs))
	}
	if len(next.Groups[0].Blocks) != 1 {
		t.Fatalf("straggler group kept %v, want block 0 alone", next.Groups[0].Blocks)
	}
}

// TestReplanStableAtOptimum: when the measurement says the current
// boundaries are already optimal, the proposal is shape-identical
// (same fingerprint) and the predicted improvement is zero — the
// controller's no-oscillation guarantee rests on this.
func TestReplanStableAtOptimum(t *testing.T) {
	cur := unsplit(1, 2, 3)
	next, eval, err := Replan(cur, measuredAt(cur, []float64{1, 1, 1}))
	if err != nil {
		t.Fatalf("Replan: %v", err)
	}
	if eval.Improvement() != 0 {
		t.Fatalf("balanced costs predicted improvement %v, want 0", eval.Improvement())
	}
	if Fingerprint(next) != Fingerprint(cur) {
		t.Fatalf("optimal placement re-planned: %s -> %s", Fingerprint(cur), Fingerprint(next))
	}
}

// TestReplanMovesOnlyUnsplitRuns: a split group's gradient fold is part
// of the trajectory, so its members, shares and blocks stay; a straggler
// among the unsplit groups behind it still sheds load.
func TestReplanMovesOnlyUnsplitRuns(t *testing.T) {
	cur := Plan{Name: "hybrid", Groups: []Group{
		{Devices: []int{0, 1}, Blocks: []int{0}, Shares: []int{3, 1}},
		{Devices: []int{2}, Blocks: []int{1, 2}},
		{Devices: []int{3}, Blocks: []int{3}},
	}}
	// Device 2 is the straggler: each of its blocks costs 6.
	busy := map[int][]float64{0: {5}, 1: {5}, 2: {6, 6}, 3: {1}}
	next, eval, err := Replan(cur, busy)
	if err != nil {
		t.Fatal(err)
	}
	want := "d0-1:b0-0s[3 1]|d2-2:b1-1|d3-3:b2-3"
	if got := Fingerprint(next); got != want || eval.Current != 12 || eval.Proposed != 7 {
		t.Fatalf("re-plan %s (%+v), want %s from bottleneck 12 to 7", got, eval, want)
	}
}

// TestReplanRejectsCostMismatch: a cost vector that does not cover the
// plan's blocks is a measurement bug, not something to paper over.
func TestReplanRejectsCostMismatch(t *testing.T) {
	cur := unsplit(1, 2)
	_, _, err := Replan(cur, map[int][]float64{0: {1, 2}, 1: {3}})
	if err == nil || !strings.Contains(err.Error(), "measured block costs") {
		t.Fatalf("cost mismatch: got %v, want coverage refusal", err)
	}
	if _, _, err := Replan(cur, map[int][]float64{0: {1}}); err == nil {
		t.Fatal("a device without measurements was priced")
	}
}

// TestImprovementEdgeCases: a zero or negative measured bottleneck means
// no meaningful measurement; Improvement must not divide by it.
func TestImprovementEdgeCases(t *testing.T) {
	if imp := (ReplanEval{Current: 0, Proposed: 0}).Improvement(); imp != 0 {
		t.Fatalf("zero-current improvement = %v, want 0", imp)
	}
	if imp := (ReplanEval{Current: 4, Proposed: 5}).Improvement(); imp >= 0 {
		t.Fatalf("regressing proposal improvement = %v, want negative", imp)
	}
}

// TestReplanMatchesBruteForce: on seeded random hybrid plans (up to 4
// devices, up to 6 blocks) under random measured costs, the re-plan keeps
// every block's split width and every group's members, rank order and
// shares, and its bottleneck is the least any such plan reaches, priced
// here independently of the search.
func TestReplanMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		nDev := 1 + rng.Intn(4)
		dc := randomComposition(rng, nDev, 1+rng.Intn(nDev))
		nb := len(dc) + rng.Intn(7-len(dc))
		bc := randomComposition(rng, nb, len(dc))
		cur := Plan{Name: "random"}
		busy := make(map[int][]float64)
		dev, blk := 0, 0
		for i := range dc {
			g := Group{Devices: seq(dev, dev+dc[i]), Blocks: seq(blk, blk+bc[i])}
			if dc[i] > 1 && rng.Intn(2) == 0 {
				g.Shares = randomComposition(rng, 4*dc[i], dc[i])
			}
			for _, d := range g.Devices {
				for range g.Blocks {
					busy[d] = append(busy[d], 0.1+10*rng.Float64())
				}
			}
			cur.Groups = append(cur.Groups, g)
			dev += dc[i]
			blk += bc[i]
		}
		next, eval, err := Replan(cur, busy)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := next.Validate(nDev, nb); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !admissible(cur, next) {
			t.Fatalf("trial %d: %s re-planned to %s, which moves a split group, a member or a share",
				trial, Fingerprint(cur), Fingerprint(next))
		}
		best := -1.0
		for mask := 0; mask < 1<<(nb-1); mask++ {
			cand := cut(cur, mask)
			if cand.Groups == nil || !admissible(cur, cand) {
				continue
			}
			if c := bruteMeasured(cur, busy, cand); best < 0 || c < best {
				best = c
			}
		}
		if eval.Proposed != best || eval.Current != bruteMeasured(cur, busy, cur) {
			t.Fatalf("trial %d: %s: re-plan %+v, brute force proposes %v from %v",
				trial, Fingerprint(cur), eval, best, bruteMeasured(cur, busy, cur))
		}
	}
}

// randomComposition returns a random composition of n into k positive
// parts.
func randomComposition(rng *rand.Rand, n, k int) []int {
	parts := make([]int, k)
	for i := range parts {
		parts[i] = 1
	}
	for i := k; i < n; i++ {
		parts[rng.Intn(k)]++
	}
	return parts
}

// cut returns cur's groups with new block boundaries: block b+1 starts a
// group when bit b of mask is set. The plan is empty unless the cuts make
// exactly as many groups as cur has.
func cut(cur Plan, mask int) Plan {
	nb := cur.NumBlocks()
	var starts []int
	for b := 0; b < nb; b++ {
		if b == 0 || mask&(1<<(b-1)) != 0 {
			starts = append(starts, b)
		}
	}
	if len(starts) != len(cur.Groups) {
		return Plan{}
	}
	starts = append(starts, nb)
	p := Plan{Groups: make([]Group, len(cur.Groups))}
	for gi, g := range cur.Groups {
		p.Groups[gi] = Group{Devices: g.Devices, Blocks: seq(starts[gi], starts[gi+1]), Shares: g.Shares}
	}
	return p
}

// admissible reports whether next keeps what a re-plan of cur must:
// every group's members in order and shares, and every block's split
// width, so a split group's blocks.
func admissible(cur, next Plan) bool {
	if len(next.Groups) != len(cur.Groups) {
		return false
	}
	width := make(map[int]int)
	for _, g := range cur.Groups {
		for _, b := range g.Blocks {
			width[b] = g.Split()
		}
	}
	for gi, g := range next.Groups {
		c := cur.Groups[gi]
		if !reflect.DeepEqual(g.Devices, c.Devices) || !reflect.DeepEqual(g.Shares, c.Shares) {
			return false
		}
		for _, b := range g.Blocks {
			if width[b] != g.Split() {
				return false
			}
		}
		if c.Split() > 1 && !reflect.DeepEqual(g.Blocks, c.Blocks) {
			return false
		}
	}
	return true
}

// bruteMeasured prices p from measurements taken under cur: a member pays
// its own measurement for a block it ran, else the most any host of the
// block measured; the plan costs its slowest member's sum.
func bruteMeasured(cur Plan, busy map[int][]float64, p Plan) float64 {
	var worst float64
	for _, g := range p.Groups {
		for _, d := range g.Devices {
			var step float64
			for _, b := range g.Blocks {
				var own, most float64
				ran := false
				for _, cg := range cur.Groups {
					for i, cb := range cg.Blocks {
						if cb != b {
							continue
						}
						for _, cd := range cg.Devices {
							most = max(most, busy[cd][i])
							if cd == d {
								own, ran = busy[cd][i], true
							}
						}
					}
				}
				if ran {
					step += own
				} else {
					step += most
				}
			}
			worst = max(worst, step)
		}
	}
	return worst
}

// TestFingerprintCanonical: fingerprints compare partition shape, not
// names, and distinguish both boundary moves and share changes.
func TestFingerprintCanonical(t *testing.T) {
	a := unsplit(2, 3)
	b := unsplit(2, 3)
	b.Name = "renamed"
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatalf("same shape, different names: %s vs %s", Fingerprint(a), Fingerprint(b))
	}
	if moved := unsplit(1, 3); Fingerprint(a) == Fingerprint(moved) {
		t.Fatalf("boundary move invisible to fingerprint: %s", Fingerprint(a))
	}
	shared := Plan{Name: "a", Groups: []Group{
		{Devices: []int{0, 1}, Blocks: []int{0, 1, 2}, Shares: []int{2, 1}},
	}}
	plain := Plan{Name: "a", Groups: []Group{
		{Devices: []int{0, 1}, Blocks: []int{0, 1, 2}},
	}}
	if Fingerprint(shared) == Fingerprint(plain) {
		t.Fatalf("share change invisible to fingerprint: %s", Fingerprint(shared))
	}
}
