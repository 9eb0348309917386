package cluster

// Measurement-driven dynamic repartitioning: the coordinator folds the
// span batches workers already ship (wire v5) into per-device measured
// per-block step times, re-searches the placement under those prices
// (sched.Replan), and — when the predicted improvement clears a threshold
// for enough consecutive evaluations — executes a planned global cut at a
// synchronous step boundary through the same attempt driver every
// recovery uses (driver.go), then resumes on the new placement.
//
// The bit-identity contract survives because the re-plan moves only the
// boundaries between runs of unsplit groups: each block's training
// trajectory is a pure function of its input activations (the
// deterministic frozen teacher chain) and its own optimizer state, and a
// split group keeps its members, shares and blocks, so no float fold is
// reordered or regrouped. A plan with nothing movable (every group split,
// or one unsplit group between split ones) simply never repartitions. The
// win is wall-clock only — exactly the paper's framing of scheduling as
// acceleration "without modifying the mathematical formulation".
//
// Conservativeness: a block that moves is priced at what it cost where it
// ran. For the move that matters — shedding blocks off a straggler — the
// moved blocks' costs were measured on the slow device, so the predicted
// bottleneck of the new placement overestimates and the realized
// improvement is at least the predicted one. Moves in the optimistic
// direction are guarded by the threshold, the hysteresis streak, and the
// applied-fingerprint set (a partition never repeats, so the controller
// terminates and cannot oscillate).

import (
	"fmt"
	"sync"

	"pipebd/internal/cluster/wire"
	"pipebd/internal/distill"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

// The controller's settings. Enabling it (Config.Repartition) forces
// fault tolerance on (snapshots are the cut mechanism) and makes workers
// ship span batches even when Config.Trace is off.
const (
	// repartitionThreshold is the least predicted relative step-time
	// improvement a proposal must clear.
	repartitionThreshold = 0.1
	// repartitionHysteresis is how many consecutive qualifying evaluations
	// (one per measured step batch) must agree before the cut executes; a
	// non-qualifying evaluation resets the streak.
	repartitionHysteresis = 3
	// repartitionWarmup is how many measured steps every device must have
	// contributed before proposals are evaluated.
	repartitionWarmup = 3
)

// plannedRepartition is the typed "error" a run fails with when the
// controller triggers: the drive loop recognizes it as a deliberate
// supersession — capture the carry, remap it to the new plan, restart —
// rather than a failure, and teardown flushes outboxes so every session
// sees its Repartition frame.
type plannedRepartition struct {
	cut  int
	plan sched.Plan
	eval sched.ReplanEval
}

func (e *plannedRepartition) Error() string {
	return fmt.Sprintf("cluster: planned repartition after step %d to %s (measured bottleneck %.2fms, predicted %.2fms, %.0f%% better)",
		e.cut, e.plan.Describe(), e.eval.Current/1e6, e.eval.Proposed/1e6, 100*e.eval.Improvement())
}

// repartitioner is the drive-loop-scoped controller state. It outlives
// individual attempts: the applied-fingerprint set must persist across
// repartitions (termination), while measurements reset every attempt.
type repartitioner struct {
	agg *obs.StepAggregator

	mu      sync.Mutex
	streak  int
	applied map[string]bool // partition fingerprints already run
}

func newRepartitioner(initial sched.Plan) *repartitioner {
	return &repartitioner{
		agg:     obs.NewStepAggregator(),
		applied: map[string]bool{sched.Fingerprint(initial): true},
	}
}

// resetMeasurements discards span statistics and the qualification
// streak; called at every attempt start (the placement — or the worker
// hosting it — changed, so old timings no longer describe the run).
func (rp *repartitioner) resetMeasurements() {
	rp.agg.Reset()
	rp.mu.Lock()
	rp.streak = 0
	rp.mu.Unlock()
}

// observeSpans folds one device's step span batch and evaluates whether
// to trigger a repartition. Called from handle on a reader goroutine.
func (r *run) observeSpans(track string, spans []obs.Span) {
	rp := r.repart
	rp.agg.Add(track, spans)
	plan, eval, ok := rp.evaluate(r.plan)
	if !ok {
		return
	}
	r.triggerRepartition(plan, eval)
}

// evaluate folds the current measurements into a proposal and advances
// the hysteresis streak. ok is true when the streak just reached
// repartitionHysteresis — the caller should execute the cut.
func (rp *repartitioner) evaluate(current sched.Plan) (sched.Plan, sched.ReplanEval, bool) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	busy, ok := rp.measuredBlockCosts(current)
	if !ok {
		return sched.Plan{}, sched.ReplanEval{}, false
	}
	plan, eval, err := sched.Replan(current, busy)
	if err != nil {
		// A device's hosted block count disagrees with the plan: its
		// measurements predate the current placement.
		return sched.Plan{}, sched.ReplanEval{}, false
	}
	if eval.Improvement() < repartitionThreshold || rp.applied[sched.Fingerprint(plan)] {
		rp.streak = 0
		return sched.Plan{}, sched.ReplanEval{}, false
	}
	rp.streak++
	if rp.streak < repartitionHysteresis {
		return sched.Plan{}, sched.ReplanEval{}, false
	}
	return plan, eval, true
}

// measuredBlockCosts returns every device's measured per-block costs,
// keyed by rank. ok is false until every device has warmed up.
func (rp *repartitioner) measuredBlockCosts(current sched.Plan) (map[int][]float64, bool) {
	stats := rp.agg.Stats()
	busy := make(map[int][]float64)
	for _, g := range current.Groups {
		for _, d := range g.Devices {
			st, ok := stats[fmt.Sprintf("dev%d", d)]
			if !ok || st.Steps < repartitionWarmup {
				return nil, false
			}
			busy[d] = st.BlockBusy
		}
	}
	return busy, true
}

// triggerRepartition executes a qualified proposal: announce the planned
// cut to every session (wire v6 Repartition frames, flushed by the
// graceful teardown) and fail the attempt with the typed error the drive
// loop converts into a restart on the new plan. The cut itself is
// whatever global step boundary the carry capture lands on; requiring a
// committed cut here (>= 0, before the last step) keeps the restart
// meaningful.
func (r *run) triggerRepartition(plan sched.Plan, eval sched.ReplanEval) {
	rp := r.repart
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	cut := r.cutLocked()
	if cut < 0 || cut >= r.steps-1 {
		r.mu.Unlock()
		return // no committed boundary yet (or nothing left to rebalance); retry on the next batch
	}
	rp.mu.Lock()
	rp.applied[sched.Fingerprint(plan)] = true
	rp.streak = 0
	rp.mu.Unlock()
	for _, p := range r.peers {
		p.out.Enqueue(wire.EncodeRepartition(int32(cut), plan))
	}
	r.mu.Unlock()
	r.fail(&plannedRepartition{cut: cut, plan: plan, eval: eval})
}

// remapCarry reshapes a captured carry from the old plan's grouping to
// the new plan's. Both plans cover the same blocks in order and train
// each block on equally many members, so each group's flattened
// parameter/velocity lists (one copy per group) split cleanly at block
// boundaries (parameter counts from the workbench) and each group's loss
// rows — member j's row of its bi-th block at j*len(Blocks)+bi — are
// exactly its blocks' rows; the remap moves slices between groups
// without copying or recombining any tensor.
func remapCarry(c *runCarry, oldPlan, newPlan sched.Plan, w *distill.Workbench) *runCarry {
	nb := w.NumBlocks()
	paramsB := make([][]*tensor.Tensor, nb)
	velB := make([][]*tensor.Tensor, nb)
	lossB := make([][][]float64, nb) // block -> one row per member
	for gi, g := range oldPlan.Groups {
		pi := 0
		for bi, b := range g.Blocks {
			n := len(w.StudentParams(b))
			if c.cut >= 0 {
				paramsB[b] = c.params[gi][pi : pi+n]
				velB[b] = c.velocity[gi][pi : pi+n]
			}
			pi += n
			for j := range g.Devices {
				lossB[b] = append(lossB[b], c.losses[gi][j*len(g.Blocks)+bi])
			}
		}
	}
	out := &runCarry{cut: c.cut,
		params:   make([][]*tensor.Tensor, len(newPlan.Groups)),
		velocity: make([][]*tensor.Tensor, len(newPlan.Groups)),
		losses:   make([][][]float64, len(newPlan.Groups))}
	for gi, g := range newPlan.Groups {
		out.losses[gi] = make([][]float64, len(g.Blocks)*g.Split())
		for bi, b := range g.Blocks {
			if c.cut >= 0 {
				out.params[gi] = append(out.params[gi], paramsB[b]...)
				out.velocity[gi] = append(out.velocity[gi], velB[b]...)
			}
			for j, row := range lossB[b] {
				out.losses[gi][j*len(g.Blocks)+bi] = row
			}
		}
	}
	return out
}
