// Package sched holds what is decided before training starts, as data.
//
// program.go is the schedule description both executors play: a Stage —
// member devices and batch shares, the student blocks trained, input from
// the loader (behind a teacher-only prefix) or relayed from the previous
// stage — and a Program, phases of stages plus whether updates wait on
// the per-step barrier. internal/pipeline plays a Program in virtual
// time, internal/engine on real kernels; neither knows a strategy by
// name. The builders are TeacherRelaying (any Plan: TR, TR+DPU, TR+IR,
// AHD's hybrid groups), DataParallel and Layerwise (the DP and LS
// baselines, the latter on LPT bin packing).
//
// price.go is what a stage costs: Price returns each member's step on its
// own GPU at its own batch share (teacher prefix and block forwards,
// student forward and backward, update, exposed all-reduce), Memory what
// the member holds. It is the paper's "profile, then plan" (§V-B) with
// the analytic cost model as the profile, and the only caller of that
// model's block times and memories: internal/pipeline plays these
// numbers and the planners below search them, so a plan is feasible
// exactly when the simulator's Fig. 7 row for it fits.
//
// search.go is the one plan search: it enumerates device compositions
// against block compositions under a constraint and keeps the cheapest
// candidate under a price source, analytic (Price and Memory) or measured
// (a live run's per-block means). Its callers are the automatic hybrid
// distribution (AHD) — every plan, memory-checked, each group's batch
// apportioned by throughput so no sample is dropped and a homogeneous
// system is simply equal GPUs — the contiguous distribution of plain
// teacher relaying, and the runtime re-plan, which moves only the
// boundaries between runs of unsplit groups. Internal relaying is a
// fixed plan.
package sched

import (
	"fmt"
	"strings"
)

// Group assigns a contiguous range of blocks to a contiguous range of
// devices. A group with more than one device trains its blocks
// data-parallel (the batch splits across members and gradients are
// all-reduced within the group), which is AHD's extra degree of freedom.
//
// Shares optionally fixes each member's slice of the global batch; nil
// means an equal split, which the batch must divide. Unequal shares are
// how AHD balances members of different speeds (the paper's stated future
// work, §VIII) — faster devices take proportionally larger slices — and
// how a split the batch does not divide still trains on every sample.
type Group struct {
	Devices []int // contiguous device ranks
	Blocks  []int // contiguous block indices
	Shares  []int // per-member batch share; nil = equal split
}

// Split returns the number of devices sharing the group's blocks.
func (g Group) Split() int { return len(g.Devices) }

// MemberBatch returns member j's local batch for a global batch size.
func (g Group) MemberBatch(globalBatch, j int) int {
	if g.Shares == nil {
		return globalBatch / g.Split()
	}
	return g.Shares[j]
}

// ValidateShares checks that the members' batches cover the global batch:
// explicit shares must sum to it, an equal split must divide it.
func (g Group) ValidateShares(globalBatch int) error {
	if g.Shares == nil {
		if globalBatch%g.Split() != 0 {
			return fmt.Errorf("sched: an equal split of batch %d over %d devices drops %d samples a step; give the group shares",
				globalBatch, g.Split(), globalBatch%g.Split())
		}
		return nil
	}
	if len(g.Shares) != g.Split() {
		return fmt.Errorf("sched: group has %d shares for %d devices", len(g.Shares), g.Split())
	}
	sum := 0
	for _, s := range g.Shares {
		if s <= 0 {
			return fmt.Errorf("sched: non-positive batch share %d", s)
		}
		sum += s
	}
	if sum != globalBatch {
		return fmt.Errorf("sched: shares sum to %d, want %d", sum, globalBatch)
	}
	return nil
}

// Plan is a complete block-to-device distribution for teacher relaying:
// an ordered list of groups covering all blocks and all devices exactly
// once, in order (group i+1 receives group i's boundary activation).
type Plan struct {
	Name   string
	Groups []Group
}

// NumDevices returns how many devices the plan's groups span.
func (p Plan) NumDevices() int {
	n := 0
	for _, g := range p.Groups {
		n += g.Split()
	}
	return n
}

// NumBlocks returns how many blocks the plan's groups train.
func (p Plan) NumBlocks() int {
	n := 0
	for _, g := range p.Groups {
		n += len(g.Blocks)
	}
	return n
}

// Validate checks that the plan covers nDev devices and nBlocks blocks
// exactly once each, contiguously and in order.
func (p Plan) Validate(nDev, nBlocks int) error {
	nextDev, nextBlock := 0, 0
	for gi, g := range p.Groups {
		if len(g.Devices) == 0 || len(g.Blocks) == 0 {
			return fmt.Errorf("sched: plan %q group %d is empty", p.Name, gi)
		}
		for _, d := range g.Devices {
			if d != nextDev {
				return fmt.Errorf("sched: plan %q group %d device %d out of order (want %d)", p.Name, gi, d, nextDev)
			}
			nextDev++
		}
		for _, b := range g.Blocks {
			if b != nextBlock {
				return fmt.Errorf("sched: plan %q group %d block %d out of order (want %d)", p.Name, gi, b, nextBlock)
			}
			nextBlock++
		}
	}
	if nextDev != nDev {
		return fmt.Errorf("sched: plan %q covers %d devices, want %d", p.Name, nextDev, nDev)
	}
	if nextBlock != nBlocks {
		return fmt.Errorf("sched: plan %q covers %d blocks, want %d", p.Name, nextBlock, nBlocks)
	}
	return nil
}

// Describe renders the plan the way the paper narrates Fig. 5 schedules,
// e.g. "dev0-2: B0-B2 (3-way DP) | dev3: B3-B5".
func (p Plan) Describe() string {
	var parts []string
	for _, g := range p.Groups {
		dev := fmt.Sprintf("dev%d", g.Devices[0])
		if len(g.Devices) > 1 {
			dev = fmt.Sprintf("dev%d-%d", g.Devices[0], g.Devices[len(g.Devices)-1])
		}
		blk := fmt.Sprintf("B%d", g.Blocks[0])
		if len(g.Blocks) > 1 {
			blk = fmt.Sprintf("B%d-B%d", g.Blocks[0], g.Blocks[len(g.Blocks)-1])
		}
		s := fmt.Sprintf("%s: %s", dev, blk)
		if len(g.Devices) > 1 {
			s += fmt.Sprintf(" (%d-way DP)", len(g.Devices))
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, " | ")
}

// GroupOf returns the index of the group containing the given device.
func (p Plan) GroupOf(device int) int {
	for gi, g := range p.Groups {
		for _, d := range g.Devices {
			if d == device {
				return gi
			}
		}
	}
	return -1
}

// Fingerprint renders a plan's partition shape canonically — device and
// block ranges only, name ignored — so callers can compare placements
// and detect repartition cycles.
func Fingerprint(p Plan) string {
	s := ""
	for gi, g := range p.Groups {
		if gi > 0 {
			s += "|"
		}
		s += fmt.Sprintf("d%d-%d:b%d-%d", g.Devices[0], g.Devices[len(g.Devices)-1],
			g.Blocks[0], g.Blocks[len(g.Blocks)-1])
		if g.Shares != nil {
			s += fmt.Sprintf("s%v", g.Shares)
		}
	}
	return s
}

// seq returns [from, from+1, ..., to-1].
func seq(from, to int) []int {
	out := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

// InternalRelaying returns the plan corresponding to the paper's TR+IR
// ablation: a single group in which every device holds every block and
// parallelism is pure data parallelism. It is the degenerate hybrid plan
// where all blocks are split only along the batch dimension.
func InternalRelaying(nDev, nBlocks int) Plan {
	return Plan{
		Name:   "internal-relaying",
		Groups: []Group{{Devices: seq(0, nDev), Blocks: seq(0, nBlocks)}},
	}
}
