package main

import (
	"fmt"
	"math"
	"time"

	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/tensor"
)

// The repository's one invariant is that every runtime trains the same
// bits: serial, parallel, in-process, hub and ring runs of one plan are
// bit-identical. The benchmark checks it on every pass it times, so a
// speed-up that changes the training trajectory is reported as failed
// passes and never as a faster time.

// passTimeout fails a pass that hangs instead of hanging the benchmark.
const passTimeout = 30 * time.Second

// outcome is what a training run leaves behind: the loss of every block
// at every step, and every student parameter's final value.
type outcome struct {
	loss    [][]float64        // [block][step]
	weights [][]*tensor.Tensor // [block][param]
}

// capture copies a finished run's outcome out of its workbench.
func capture(wb *distill.Workbench, res engine.Result) outcome {
	o := outcome{loss: res.Loss, weights: make([][]*tensor.Tensor, wb.NumBlocks())}
	for b := range o.weights {
		for _, p := range wb.StudentParams(b) {
			o.weights[b] = append(o.weights[b], p.Value.Clone())
		}
	}
	return o
}

// differs compares got against o. With rtol == 0 every loss and weight
// must match bit for bit. Otherwise a loss may be off by rtol of itself
// and a weight by rtol of its tensor's largest magnitude: reordered
// float32 sums move every element of a tensor by about the same absolute
// amount, so a per-element relative test would fail on the weights that
// happen to train toward zero.
func (o outcome) differs(got outcome, rtol float64) error {
	if len(got.loss) != len(o.loss) || len(got.weights) != len(o.weights) {
		return fmt.Errorf("%d loss rows and %d weight blocks, want %d and %d",
			len(got.loss), len(got.weights), len(o.loss), len(o.weights))
	}
	for b := range o.loss {
		if len(got.loss[b]) != len(o.loss[b]) {
			return fmt.Errorf("block %d has %d losses, want %d", b, len(got.loss[b]), len(o.loss[b]))
		}
		for s, want := range o.loss[b] {
			have := got.loss[b][s]
			same := math.Float64bits(have) == math.Float64bits(want)
			if rtol > 0 {
				same = math.Abs(have-want) <= rtol*math.Abs(want)
			}
			if !same {
				return fmt.Errorf("block %d step %d loss %v, want %v", b, s, have, want)
			}
		}
	}
	for b := range o.weights {
		if len(got.weights[b]) != len(o.weights[b]) {
			return fmt.Errorf("block %d has %d params, want %d", b, len(got.weights[b]), len(o.weights[b]))
		}
		for p, want := range o.weights[b] {
			have := got.weights[b][p]
			same := have.Equal(want)
			if rtol > 0 {
				same = have.SameShape(want) && maxAbsDiff(have, want) <= rtol*maxAbsDiff(want, nil)
			}
			if !same {
				return fmt.Errorf("block %d param %d differs from the oracle", b, p)
			}
		}
	}
	return nil
}

// maxAbsDiff is the largest |a[i] − b[i]|; a nil b reads as zeros.
func maxAbsDiff(a, b *tensor.Tensor) float64 {
	var worst float64
	for i, v := range a.Data() {
		d := float64(v)
		if b != nil {
			d -= float64(b.Data()[i])
		}
		worst = math.Max(worst, math.Abs(d))
	}
	return worst
}

// oracles computes, once and untimed, what every pass of w must
// produce. Oracle A is plain sequential training. For a plan with a
// split group the all-reduce averages shard gradients, which is the same
// mathematics in a different floating-point order, so the exact
// reference is oracle B — one in-process pipelined run of the same plan
// on the serial backend — and B must agree with A within 1e-3 (over 120
// seeds the two differ by at most 8e-5 of a tensor's largest weight).
func oracles(w *workload, steps int) (a, exact outcome, err error) {
	batches, err := w.dataSpec(steps).Batches()
	if err != nil {
		return a, exact, err
	}
	wa := w.newWorkbench()
	a = capture(wa, engine.RunSequential(wa, batches, lr, momentum))
	split := false
	for _, g := range w.plan.Groups {
		split = split || g.Split() > 1
	}
	if !split {
		return a, a, nil
	}
	wb := w.newWorkbench()
	exact = capture(wb, engine.RunPipelined(wb, batches, engine.Config{Plan: w.plan, DPU: w.dpu,
		LR: lr, Momentum: momentum, Backend: tensor.Serial{}}))
	if err := a.differs(exact, 1e-3); err != nil {
		return a, exact, fmt.Errorf("%s: pipelined oracle B strays from sequential oracle A: %w", w.name, err)
	}
	return a, exact, nil
}

var errTimeout = fmt.Errorf("pass exceeded %v", passTimeout)

// guarded runs f with the pass timeout and turns a panic into an error.
// After a timeout f's goroutines are still running, so the caller must
// stop measuring.
func guarded(f func() (engine.Result, error)) (engine.Result, error) {
	type ret struct {
		res engine.Result
		err error
	}
	done := make(chan ret, 1) // the send must not block once we stopped waiting
	go func() {
		var r ret
		defer func() {
			if p := recover(); p != nil {
				r.err = fmt.Errorf("pass panicked: %v", p)
			}
			done <- r
		}()
		r.res, r.err = f()
	}()
	timer := time.NewTimer(passTimeout)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.res, r.err
	case <-timer.C:
		return engine.Result{}, errTimeout
	}
}
