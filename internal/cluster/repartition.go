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
	"time"

	"pipebd/internal/obs"
	"pipebd/internal/sched"
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
// supersession — remap the account onto the new plan, restart —
// rather than a failure, and teardown flushes outboxes so every session
// sees its Repartition frame.
type plannedRepartition struct {
	cut  int
	plan sched.Plan
	eval sched.ReplanEval
}

func (e *plannedRepartition) Error() string {
	return fmt.Sprintf("cluster: planned repartition after step %d to %s (measured bottleneck %v, predicted %v, %.0f%% better)",
		e.cut, e.plan.Describe(), time.Duration(e.eval.Current), time.Duration(e.eval.Proposed), 100*e.eval.Improvement())
}

// repartitioner is the drive-loop-scoped controller state. It outlives
// individual attempts: the applied-fingerprint set must persist across
// repartitions (termination), while measurements reset every attempt.
// The running attempt's core feeds it (attemptCore.observeSpans).
type repartitioner struct {
	agg     *obs.StepAggregator
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
	rp.streak = 0
}

// evaluate folds the current measurements into a proposal and advances
// the hysteresis streak. ok is true when the streak just reached
// repartitionHysteresis — the caller should execute the cut.
func (rp *repartitioner) evaluate(current sched.Plan) (sched.Plan, sched.ReplanEval, bool) {
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
