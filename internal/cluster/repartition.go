package cluster

// Measurement-driven dynamic repartitioning: the coordinator folds the
// span batches workers already ship (wire v5), one per device and step,
// into measured per-block step times, re-searches the placement under
// their means (sched.Replan) and, once the proposal's measured gain
// clears a threshold above its noise, executes a planned global cut at a
// synchronous step boundary through the attempt driver every recovery
// uses (driver.go), then resumes on the new placement.
//
// Bit-identity survives because the re-plan moves only the boundaries
// between runs of unsplit groups (sched.Replan): no float fold is
// reordered, and a plan with nothing movable never repartitions. The win
// is wall-clock only, "without modifying the mathematical formulation",
// as the paper frames scheduling.
//
// The decision is taken once per step every device has measured, from
// steps up to it only, so it and its cut are functions of the spans, not
// of the order frames arrive in. Each such step prices the placement and
// the standing proposal from its own block costs: one paired sample of
// the improvement, in which a moved block's noise sits on both sides and
// cancels. The proposal qualifies when the samples' trimmed mean,
// repartitionZ standard errors down, clears repartitionThreshold: a step
// whose moved block stalled, one in ten, does not veto a straggler's
// cut. A moved block is
// priced at what it cost where it ran, so shedding a straggler's blocks
// is predicted conservatively, and a partition never repeats (the
// applied-fingerprint set), so the controller terminates.

import (
	"fmt"
	"math"
	"slices"

	"pipebd/internal/sched"
)

// The controller's settings. Enabling it (Config.Repartition) forces
// fault tolerance on (snapshots are the cut mechanism) and makes workers
// ship span batches even when Config.Trace is off.
const (
	// repartitionThreshold is the least relative step-time improvement a
	// proposal must clear.
	repartitionThreshold = 0.1
	// repartitionZ is how many standard errors below the samples'
	// trimmed mean the improvement is taken at.
	repartitionZ = 3
	// repartitionTrim is the share of samples trimmed off each end of
	// their sorted order before the mean: none under ten samples.
	repartitionTrim = 0.1
)

// plannedRepartition is the typed "error" a run fails with when the
// controller triggers, its decision: the drive loop takes it as a
// deliberate supersession (remap the account onto the new plan, restart,
// report the decision), and teardown flushes outboxes so every session
// sees its Repartition frame.
type plannedRepartition struct{ Event }

func (e *plannedRepartition) Error() string { return e.String() }

// repartitioner is one attempt's controller state, fed by its core
// (attemptCore.onSpans). The applied-fingerprint set is the drive loop's
// and outlives the attempt; the measurements start afresh with each.
type repartitioner struct {
	applied  map[string]bool   // partition fingerprints already run
	from     int               // the oldest step some device has not measured
	queue    [][][]float64     // device → its per-block busy of steps from, from+1, ...
	mean     map[int][]float64 // device → its per-block busy's mean over the evaluated steps
	n        float64           // evaluated steps
	proposal string            // the standing proposal's fingerprint
	samples  []float64         // its paired improvement samples, one per step
}

// newRepartitioner measures an attempt whose devices run from step first.
func newRepartitioner(applied map[string]bool, devices, first int) *repartitioner {
	return &repartitioner{applied: applied, from: first, queue: make([][][]float64, devices), mean: map[int][]float64{}}
}

// add queues device dev's busy of step, which must be the device's next,
// and returns every device's busy of the step it completes, if it does.
func (rp *repartitioner) add(dev, step int, busy []float64) (map[int][]float64, error) {
	if next := rp.from + len(rp.queue[dev]); step != next {
		return nil, fmt.Errorf("cluster: spans of step %d from device %d, whose next step is %d", step, dev, next)
	}
	rp.queue[dev] = append(rp.queue[dev], busy)
	if slices.ContainsFunc(rp.queue, func(q [][]float64) bool { return len(q) == 0 }) {
		return nil, nil
	}
	done := make(map[int][]float64, len(rp.queue))
	for d, q := range rp.queue {
		done[d], rp.queue[d] = q[0], q[1:]
	}
	rp.from++
	return done, nil
}

// evaluate folds one completed step into the means, re-plans from them,
// and samples the proposal's improvement on the step's own costs. ok is
// true when the proposal qualifies — the caller should execute the cut.
// The bound wants three samples: fewer say nothing of their spread.
func (rp *repartitioner) evaluate(current sched.Plan, busy map[int][]float64) (sched.Plan, sched.ReplanEval, bool) {
	rp.n++
	for d, b := range busy {
		if rp.mean[d] == nil {
			rp.mean[d] = make([]float64, len(b))
		}
		for i, v := range b {
			rp.mean[d][i] += (v - rp.mean[d][i]) / rp.n
		}
	}
	plan, eval, err := sched.Replan(current, rp.mean)
	var step sched.ReplanEval
	if err == nil {
		step, err = sched.Reprice(current, plan, busy)
	}
	if err != nil {
		return sched.Plan{}, sched.ReplanEval{}, false
	}
	if fp := sched.Fingerprint(plan); fp != rp.proposal {
		rp.proposal, rp.samples = fp, rp.samples[:0]
	}
	rp.samples = append(rp.samples, step.Improvement())
	if rp.applied[rp.proposal] || len(rp.samples) < 3 || lowerBound(rp.samples) < repartitionThreshold {
		return sched.Plan{}, sched.ReplanEval{}, false
	}
	return plan, eval, true
}

// lowerBound is samples' repartitionTrim-trimmed mean less repartitionZ
// of its standard errors, Yuen's: the winsorized samples' standard
// deviation over (1 − 2·trim)·√k. Untrimmed, it is mean − Z·s/√k.
func lowerBound(samples []float64) float64 {
	y := slices.Sorted(slices.Values(samples))
	k, h := len(y), int(repartitionTrim*float64(len(samples)))
	var mean, wmean, ss float64
	for i, v := range y {
		if i >= h && i < k-h {
			mean += v / float64(k-2*h)
		}
		y[i] = min(max(v, y[h]), y[k-1-h]) // winsorized
		wmean += y[i] / float64(k)
	}
	for _, w := range y {
		ss += (w - wmean) * (w - wmean)
	}
	return mean - repartitionZ*math.Sqrt(ss/float64(k-1)*float64(k))/float64(k-2*h)
}
