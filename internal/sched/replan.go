package sched

import "fmt"

// Runtime re-planning: re-derive the contiguous block distribution from
// per-block step times measured on the live run (BaPipe-style dynamic
// repartitioning). The entry point deliberately restricts itself to
// all-unsplit plans — one device per group — because that is the exact
// set of placements the synchronous engine can switch between without
// changing a single arithmetic operation: each block's training
// trajectory depends only on its input activations (a deterministic
// function of the frozen teacher chain) and its own optimizer state, so
// moving a contiguous boundary between two devices relocates work but
// never reorders or regroups a float fold. Split (data-parallel) groups
// break that property — their all-reduce fold order is part of the
// trajectory — so re-planning them is refused and left as the seam for
// an asynchronous/1F1B schedule that relaxes bit-identity.

// ReplanEval compares the measured bottleneck of the current placement
// with the predicted bottleneck of a proposed one, in the measurement's
// own time unit.
type ReplanEval struct {
	// Current is the bottleneck device's measured per-step compute time
	// under the current placement: max over groups of the group's summed
	// measured block costs.
	Current float64
	// Proposed is the predicted bottleneck of the proposed placement,
	// evaluated on the same measured costs. For blocks that move to
	// another device the measurement was taken on the old (possibly
	// slower) host, so Proposed overestimates segments that shed load off
	// a straggler — the prediction is conservative in the direction that
	// matters.
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

// Replan re-derives the contiguous one-device-per-group partition from
// measured per-block costs (nanoseconds from obs.StepAggregator, or any
// consistent unit), keeping the current plan's device order. It returns
// the proposed plan — which may equal the current partition when the
// measurement already sits at the optimum — and the evaluation of the
// proposal against the current boundaries. It fails when the current
// plan has split groups (see the package comment on bit-identity) or
// when the cost vector does not cover the plan's blocks.
func Replan(current Plan, blockCost []float64) (Plan, ReplanEval, error) {
	nb := 0
	for gi, g := range current.Groups {
		if g.Split() != 1 {
			return Plan{}, ReplanEval{}, fmt.Errorf(
				"sched: replan: plan %q group %d spans %d devices; only all-unsplit plans repartition bit-identically",
				current.Name, gi, g.Split())
		}
		nb += len(g.Blocks)
	}
	if len(blockCost) != nb {
		return Plan{}, ReplanEval{}, fmt.Errorf(
			"sched: replan: %d measured block costs for plan %q covering %d blocks", len(blockCost), current.Name, nb)
	}
	nDev := len(current.Groups)

	var eval ReplanEval
	for _, g := range current.Groups {
		var sum float64
		for _, b := range g.Blocks {
			sum += blockCost[b]
		}
		if sum > eval.Current {
			eval.Current = sum
		}
	}

	// A measured block costs what it cost where it ran, whichever device
	// the proposal moves it to.
	prefix := make([]float64, nb+1)
	for b, c := range blockCost {
		prefix[b+1] = prefix[b] + c
	}
	ends, bottleneck := contiguousPartition(nb, nDev, func(_, from, to int) float64 { return prefix[to] - prefix[from] })
	eval.Proposed = bottleneck

	groups := make([]Group, nDev)
	b := 0
	for d, end := range ends {
		groups[d] = Group{Devices: []int{current.Groups[d].Devices[0]}, Blocks: seq(b, end)}
		b = end
	}
	return Plan{Name: "rebalanced", Groups: groups}, eval, nil
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
