package cluster

// Measurement-driven dynamic repartitioning (the runtime half of ROADMAP
// item 4's rebalancing): the coordinator folds the span batches workers
// already ship (wire v5) into per-device measured step times, re-derives
// the contiguous plan from those measurements (sched.Replan over the
// measured per-block costs), and — when the predicted
// improvement clears a threshold for enough consecutive evaluations —
// executes a planned global cut at a synchronous step boundary through
// the same attempt driver every recovery uses (driver.go), then resumes
// on the new placement.
//
// The bit-identity contract survives because re-planning is restricted
// to all-unsplit plans: each block's training trajectory is a pure
// function of its input activations (the deterministic frozen teacher
// chain) and its own optimizer state, so moving a contiguous block
// boundary between devices relocates work without reordering a single
// float fold. The win is wall-clock only — exactly the paper's framing
// of scheduling as acceleration "without modifying the mathematical
// formulation".
//
// Conservativeness: measured block costs are treated as properties of
// the block, not the device. For the move that matters — shedding
// blocks off a straggler — the moved blocks' costs were measured on the
// slow device, so the predicted bottleneck of the new placement
// overestimates and the realized improvement is at least the predicted
// one. Moves in the optimistic direction are guarded by the threshold,
// the hysteresis streak, and the applied-fingerprint set (a partition
// never repeats, so the controller terminates and cannot oscillate).

import (
	"fmt"
	"sync"

	"pipebd/internal/cluster/wire"
	"pipebd/internal/distill"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

// RepartitionConfig tunes the runtime repartitioner. Enabling it forces
// fault tolerance on (snapshots are the cut mechanism) and makes workers
// ship span batches even when Config.Trace is off.
type RepartitionConfig struct {
	// Enabled turns the controller on. Requires an all-unsplit plan
	// (every group hosted by exactly one device); split groups would
	// break the bit-identity contract and are refused at run start.
	Enabled bool
	// Threshold is the minimum predicted relative step-time improvement
	// a proposal must clear, e.g. 0.1 = 10%. <= 0 means 0.1.
	Threshold float64
	// Hysteresis is how many consecutive qualifying evaluations (one per
	// measured step batch) must agree before the cut executes; a
	// non-qualifying evaluation resets the streak. <= 0 means 3.
	Hysteresis int
	// Warmup is the minimum number of measured steps every device must
	// have contributed before proposals are evaluated. <= 0 means 3.
	Warmup int
}

func (c RepartitionConfig) withDefaults() RepartitionConfig {
	if c.Threshold <= 0 {
		c.Threshold = 0.1
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 3
	}
	if c.Warmup <= 0 {
		c.Warmup = 3
	}
	return c
}

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
	cfg RepartitionConfig
	agg *obs.StepAggregator

	mu      sync.Mutex
	streak  int
	stopped bool            // re-planning refused (split groups); never retry
	applied map[string]bool // partition fingerprints already run
}

func newRepartitioner(cfg RepartitionConfig, initial sched.Plan) *repartitioner {
	return &repartitioner{
		cfg:     cfg.withDefaults(),
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
// the hysteresis streak. ok is true when the streak just reached the
// configured length — the caller should execute the cut.
func (rp *repartitioner) evaluate(current sched.Plan) (sched.Plan, sched.ReplanEval, bool) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.stopped {
		return sched.Plan{}, sched.ReplanEval{}, false
	}
	blockCost, ok := rp.measuredBlockCosts(current)
	if !ok {
		return sched.Plan{}, sched.ReplanEval{}, false
	}
	plan, eval, err := sched.Replan(current, blockCost)
	if err != nil {
		// Split groups: permanently out of scope (the seam left for an
		// asynchronous schedule that relaxes bit-identity).
		rp.stopped = true
		return sched.Plan{}, sched.ReplanEval{}, false
	}
	fp := sched.Fingerprint(plan)
	if eval.Improvement() < rp.cfg.Threshold || rp.applied[fp] {
		rp.streak = 0
		return sched.Plan{}, sched.ReplanEval{}, false
	}
	rp.streak++
	if rp.streak < rp.cfg.Hysteresis {
		return sched.Plan{}, sched.ReplanEval{}, false
	}
	return plan, eval, true
}

// measuredBlockCosts maps the per-device statistics onto global block
// indices under the current plan. ok is false until every device has
// warmed up with consistent measurements.
func (rp *repartitioner) measuredBlockCosts(current sched.Plan) ([]float64, bool) {
	stats := rp.agg.Stats()
	nb := 0
	for _, g := range current.Groups {
		nb += len(g.Blocks)
	}
	blockCost := make([]float64, nb)
	for _, g := range current.Groups {
		if g.Split() != 1 {
			return nil, false
		}
		st, ok := stats[fmt.Sprintf("dev%d", g.Devices[0])]
		if !ok || st.Steps < rp.cfg.Warmup || len(st.BlockBusy) != len(g.Blocks) {
			return nil, false
		}
		for i, b := range g.Blocks {
			blockCost[b] = st.BlockBusy[i]
		}
	}
	return blockCost, true
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
// the new plan's. Both plans are all-unsplit and cover the same blocks
// in order, so each group's flattened parameter/velocity lists split
// cleanly at block boundaries (parameter counts from the workbench) and
// each group's loss rows are exactly its blocks' rows; the remap moves
// slices between groups without copying or recombining any tensor.
func remapCarry(c *runCarry, oldPlan, newPlan sched.Plan, w *distill.Workbench) *runCarry {
	nb := w.NumBlocks()
	paramsB := make([][]*tensor.Tensor, nb)
	velB := make([][]*tensor.Tensor, nb)
	lossB := make([][]float64, nb)
	for gi, g := range oldPlan.Groups {
		pi := 0
		for bi, b := range g.Blocks {
			n := len(w.StudentParams(b))
			if c.cut >= 0 {
				paramsB[b] = c.params[gi][pi : pi+n]
				velB[b] = c.velocity[gi][pi : pi+n]
			}
			pi += n
			lossB[b] = c.losses[gi][bi]
		}
	}
	out := &runCarry{cut: c.cut,
		params:   make([][]*tensor.Tensor, len(newPlan.Groups)),
		velocity: make([][]*tensor.Tensor, len(newPlan.Groups)),
		losses:   make([][][]float64, len(newPlan.Groups))}
	for gi, g := range newPlan.Groups {
		for _, b := range g.Blocks {
			if c.cut >= 0 {
				out.params[gi] = append(out.params[gi], paramsB[b]...)
				out.velocity[gi] = append(out.velocity[gi], velB[b]...)
			}
			out.losses[gi] = append(out.losses[gi], lossB[b])
		}
	}
	return out
}
