package sched

import (
	"testing"

	"pipebd/internal/hw"
	"pipebd/internal/model"
)

// mixedSystem returns 2x A6000 + 2x 2080Ti on a shared PCIe 4 link.
func mixedSystem() hw.System {
	return HeteroSystem("2xA6000+2x2080Ti", hw.PCIe4(), hw.EPYC7302Host(),
		hw.RTXA6000(), hw.RTXA6000(), hw.RTX2080Ti(), hw.RTX2080Ti())
}

func TestHeteroSystemValidates(t *testing.T) {
	sys := mixedSystem()
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	if sys.GPUs[0].Name == sys.GPUs[2].Name {
		t.Fatal("system should mix GPU types")
	}
}

func TestHeteroSystemPanicsWithoutGPUs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HeteroSystem("empty", hw.PCIe4(), hw.EPYC7302Host())
}

func TestAHDHeteroProducesValidPlan(t *testing.T) {
	w := model.NAS(false)
	sys := mixedSystem()
	plan := AHDHetero(w, sys, 256)
	if err := plan.Validate(sys.NumDevices(), w.NumBlocks()); err != nil {
		t.Fatal(err)
	}
	for _, g := range plan.Groups {
		if err := g.ValidateShares(256); err != nil {
			t.Fatal(err)
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
	g := Group{Devices: []int{0, 1}, Blocks: []int{0, 1}}
	if shares := apportion(w, sys, 256, g); shares != nil {
		t.Fatalf("equal-speed members should get the canonical nil split, got %v", shares)
	}
}

func TestAHDHeteroMatchesAHDOnHomogeneousSystem(t *testing.T) {
	// On a homogeneous system the heterogeneous planner must produce a
	// plan whose bottleneck estimate is no worse than the homogeneous
	// planner's (both search the same composition space).
	w := model.NAS(true)
	sys := hw.A6000x4()
	hetero := AHDHetero(w, sys, 256)
	if err := hetero.Validate(4, w.NumBlocks()); err != nil {
		t.Fatal(err)
	}
	// All groups should carry canonical (nil) shares.
	for _, g := range hetero.Groups {
		if g.Shares != nil {
			t.Fatalf("homogeneous plan carries explicit shares: %v", g.Shares)
		}
	}
}

func TestAHDHeteroSplitsDominantBlock(t *testing.T) {
	w := model.NAS(true)
	plan := AHDHetero(w, mixedSystem(), 256)
	first := plan.Groups[0]
	if first.Blocks[0] != 0 || first.Split() < 2 {
		t.Fatalf("expected block 0 shared, got %s", plan.Describe())
	}
}

func TestAHDHeteroMemoryFallback(t *testing.T) {
	w := model.NAS(true)
	sys := mixedSystem()
	for i := range sys.GPUs {
		sys.GPUs[i].MemBytes = 2 << 30 // nothing fits
	}
	plan := AHDHetero(w, sys, 256)
	if err := plan.Validate(4, w.NumBlocks()); err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) != 1 {
		t.Fatalf("fallback should be the widest split, got %s", plan.Describe())
	}
}

func TestMemberBatch(t *testing.T) {
	g := Group{Devices: []int{0, 1}, Blocks: []int{0}}
	if g.MemberBatch(256, 0) != 128 || g.MemberBatch(256, 1) != 128 {
		t.Fatal("nil shares must split evenly")
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
