package sched

import (
	"fmt"

	"pipebd/internal/hw"
	"pipebd/internal/model"
)

// The one plan search. AHD, TRContiguous and the runtime Replan differ
// only in which candidates they admit and where the prices come from.

// A priceSource prices a candidate plan: what one step costs each group —
// its slowest member — and whether every member fits its device.
type priceSource func(Plan) (groupCost []float64, fits bool)

// analytic prices a plan the way pipeline.Run will play it under
// decoupled parameter update, from Price and, when checkMemory is set,
// Memory against each member's own device.
func analytic(w model.Workload, sys hw.System, batch int, checkMemory bool) priceSource {
	return func(p Plan) ([]float64, bool) {
		prog := TeacherRelaying(p, true)
		phase := prog.Phases[0]
		costs := make([]float64, len(phase))
		for si, st := range phase {
			members, err := Price(w, sys, batch, st)
			if err != nil {
				panic(err) // the planners build only stages whose shares cover the batch
			}
			for _, m := range members {
				if checkMemory && Memory(w, prog.Model, phase, si, m.Batch) > int64(memHeadroom*float64(sys.GPUs[m.Device].MemBytes)) {
					return nil, false
				}
				costs[si] = max(costs[si], m.Step())
			}
		}
		return costs, true
	}
}

// measured prices a plan from a live run of current: busy[d][i] is what
// device d's i-th block cost it per step. A member pays its own
// measurement for a block it ran and, for one it did not, what the block
// cost where it ran (on its slowest host). Every plan fits: there is no
// measured memory yet.
func measured(current Plan, busy map[int][]float64) (priceSource, error) {
	own := make(map[[2]int]float64)                   // (device, block) -> measured cost
	elsewhere := make([]float64, current.NumBlocks()) // block -> cost on its slowest host
	for _, g := range current.Groups {
		for _, d := range g.Devices {
			if len(busy[d]) != len(g.Blocks) {
				return nil, fmt.Errorf("sched: %d measured block costs for device %d of plan %q, which trains %d blocks",
					len(busy[d]), d, current.Name, len(g.Blocks))
			}
			for i, b := range g.Blocks {
				own[[2]int{d, b}] = busy[d][i]
				elsewhere[b] = max(elsewhere[b], busy[d][i])
			}
		}
	}
	return func(p Plan) ([]float64, bool) {
		costs := make([]float64, len(p.Groups))
		for gi, g := range p.Groups {
			for _, d := range g.Devices {
				var step float64
				for _, b := range g.Blocks {
					c, ok := own[[2]int{d, b}]
					if !ok {
						c = elsewhere[b]
					}
					step += c
				}
				costs[gi] = max(costs[gi], step)
			}
		}
		return costs, true
	}, nil
}

// search returns the cheapest plan that cuts nDev device ranks and nb
// blocks into equally many contiguous runs, the i-th run of devices
// training the i-th run of blocks: every device composition against every
// block composition of the same length, priced by price. group turns run
// gi into the candidate's group — members, blocks, shares — or rules the
// candidate out. ok is false when no admitted candidate fits.
//
// Candidates compare group by group from the front: first by the
// bottleneck of the groups from there on, then by where the group's
// blocks end, the earlier the better. The cheapest plan therefore wins,
// and among equally cheap ones the one whose front groups end first and
// whose remainder is in turn the cheapest; what still ties, the first
// enumerated.
func search(nDev, nb int, group func(gi int, devices, blocks []int) (Group, bool), price priceSource) (best Plan, cost []float64, ok bool) {
	for _, dc := range compositions(nDev) {
	candidates:
		for _, bc := range compositions(nb) {
			if len(dc) != len(bc) {
				continue
			}
			cand := Plan{Groups: make([]Group, len(dc))}
			dev, blk := 0, 0
			for gi := range dc {
				g, admit := group(gi, seq(dev, dev+dc[gi]), seq(blk, blk+bc[gi]))
				if !admit {
					continue candidates
				}
				cand.Groups[gi] = g
				dev += dc[gi]
				blk += bc[gi]
			}
			if c, fits := price(cand); fits && (!ok || cheaper(cand, c, best, cost)) {
				best, cost, ok = cand, c, true
			}
		}
	}
	return best, cost, ok
}

// cheaper reports whether plan a, whose groups cost ca, beats plan b,
// whose groups cost cb, in search's order.
func cheaper(a Plan, ca []float64, b Plan, cb []float64) bool {
	sa, sb := suffixMax(ca), suffixMax(cb)
	for i := range a.Groups {
		if sa[i] != sb[i] {
			return sa[i] < sb[i]
		}
		ga, gb := a.Groups[i].Blocks, b.Groups[i].Blocks
		if ea, eb := ga[len(ga)-1], gb[len(gb)-1]; ea != eb {
			return ea < eb
		}
	}
	return false
}

// suffixMax returns, for each group, the bottleneck of it and the groups
// after it.
func suffixMax(costs []float64) []float64 {
	out := make([]float64, len(costs))
	var m float64
	for i := len(costs) - 1; i >= 0; i-- {
		m = max(m, costs[i])
		out[i] = m
	}
	return out
}

// bottleneck is a plan's time per step: its slowest group's.
func bottleneck(groupCost []float64) float64 { return suffixMax(groupCost)[0] }

// ReplanEval compares the measured bottleneck of the current placement
// with the one the re-plan proposes, in the measurement's own time unit.
type ReplanEval struct {
	// Current is the current placement's bottleneck: its slowest group's
	// summed measured block costs.
	Current float64
	// Proposed is the proposal's bottleneck under the same prices. A block
	// that moves keeps the cost measured where it ran, so when it sheds
	// load off a straggler Proposed overestimates — the prediction is
	// conservative in the direction that matters.
	Proposed float64
}

// Improvement returns the predicted relative step-time reduction,
// (Current-Proposed)/Current, in [0,1] when the proposal helps.
func (e ReplanEval) Improvement() float64 {
	if e.Current <= 0 {
		return 0
	}
	return (e.Current - e.Proposed) / e.Current
}

// Replan re-searches current's placement from measured per-block costs
// (busy[d][i]: what device d's i-th block cost per step, as obs.BlockBusy
// folds it from the device's spans). The proposal keeps every group's
// members, in rank order, and shares, and every split group's blocks:
// only the boundaries between runs of unsplit groups move. That is the
// set of placements the synchronous engine switches between without
// changing one arithmetic operation — a block's trajectory depends only
// on its input activations and its own optimizer state, and no split
// group's all-reduce regroups. Replan fails when busy does not cover
// every member's blocks.
func Replan(current Plan, busy map[int][]float64) (Plan, ReplanEval, error) {
	price, err := measured(current, busy)
	if err != nil {
		return Plan{}, ReplanEval{}, err
	}
	keep := func(gi int, devices, blocks []int) (Group, bool) {
		if gi >= len(current.Groups) {
			return Group{}, false
		}
		cur := current.Groups[gi]
		if len(devices) != cur.Split() || cur.Split() > 1 && (blocks[0] != cur.Blocks[0] || len(blocks) != len(cur.Blocks)) {
			return Group{}, false
		}
		return Group{Devices: cur.Devices, Blocks: blocks, Shares: cur.Shares}, true
	}
	next, _, ok := search(current.NumDevices(), current.NumBlocks(), keep, price)
	if !ok {
		return Plan{}, ReplanEval{}, fmt.Errorf("sched: plan %q is not a contiguous placement to re-plan", current.Name)
	}
	next.Name = "rebalanced"
	eval, err := Reprice(current, next, busy)
	return next, eval, err
}

// Reprice prices current and proposal from busy measured under current,
// as Replan prices them: the runtime repartitioner compares a standing
// proposal with the placement step by step, each step's costs pricing
// both sides. It fails when busy does not cover every member's blocks.
func Reprice(current, proposal Plan, busy map[int][]float64) (ReplanEval, error) {
	price, err := measured(current, busy)
	if err != nil {
		return ReplanEval{}, err
	}
	now, _ := price(current)
	next, _ := price(proposal)
	return ReplanEval{Current: bottleneck(now), Proposed: bottleneck(next)}, nil
}
