// Package profilegen implements the paper's pre-training profiling step:
// before choosing a schedule, Pipe-BD "runs 100 steps of each block with
// feasible batch sizes to obtain execution times under the current
// environment" (§V-B). The automatic hybrid distribution planner consumes
// only this measured table, never the cost model directly, mirroring the
// real system's separation between measurement and planning.
package profilegen

import (
	"pipebd/internal/cost"
	"pipebd/internal/hw"
	"pipebd/internal/model"
)

// Profile is the measured per-block execution-time table for one
// workload/GPU/global-batch configuration. All two-dimensional slices are
// indexed [block][split-1], where split is the number of devices sharing
// the block (local batch = GlobalBatch/split).
type Profile struct {
	Workload    string
	GPU         hw.GPU
	GlobalBatch int
	MaxSplit    int

	TeacherFwd [][]float64
	StudentFwd [][]float64
	StudentBwd [][]float64
	// Update is the per-block optimizer step time (batch independent).
	Update []float64

	// TeacherOutBytesPerSample is each teacher block's output activation
	// size for one sample (relay transfer sizing).
	TeacherOutBytesPerSample []int64
	// TeacherInBytesPerSample is each teacher block's input activation
	// size for one sample.
	TeacherInBytesPerSample []int64
	// StudentParamBytes is each student block's parameter size
	// (all-reduce sizing).
	StudentParamBytes []int64

	// TeacherMem / StudentMem give per-block device memory at each split
	// (teacher inference, student training), for feasibility checks.
	TeacherMem [][]int64
	StudentMem [][]int64
}

// NumBlocks returns the profiled block count.
func (p Profile) NumBlocks() int { return len(p.TeacherFwd) }

// StepTime returns the full per-step compute time of one block at the
// given split: teacher forward plus student forward and backward.
func (p Profile) StepTime(block, split int) float64 {
	return p.TeacherFwd[block][split-1] + p.StudentFwd[block][split-1] + p.StudentBwd[block][split-1]
}

// Measure profiles every block of the workload on the given GPU at every
// feasible split of the global batch (1..maxSplit devices), running the
// configured number of timing steps per measurement and averaging. The
// analytic device model is deterministic, so steps > 1 reproduces the
// paper's interface without changing the result; it keeps the call shape
// identical to a real profiler's.
func Measure(w model.Workload, gpu hw.GPU, globalBatch, maxSplit, steps int) Profile {
	if globalBatch <= 0 || maxSplit <= 0 {
		panic("profilegen: batch and maxSplit must be positive")
	}
	if steps <= 0 {
		steps = 100 // the paper's default
	}
	nb := w.NumBlocks()
	p := Profile{
		Workload:    w.Name,
		GPU:         gpu,
		GlobalBatch: globalBatch,
		MaxSplit:    maxSplit,

		TeacherFwd: make([][]float64, nb),
		StudentFwd: make([][]float64, nb),
		StudentBwd: make([][]float64, nb),
		Update:     make([]float64, nb),

		TeacherOutBytesPerSample: make([]int64, nb),
		TeacherInBytesPerSample:  make([]int64, nb),
		StudentParamBytes:        make([]int64, nb),

		TeacherMem: make([][]int64, nb),
		StudentMem: make([][]int64, nb),
	}
	for b := 0; b < nb; b++ {
		tb := w.Teacher.Net.Blocks[b]
		sb := w.Student.Net.Blocks[b]
		p.TeacherFwd[b] = make([]float64, maxSplit)
		p.StudentFwd[b] = make([]float64, maxSplit)
		p.StudentBwd[b] = make([]float64, maxSplit)
		p.TeacherMem[b] = make([]int64, maxSplit)
		p.StudentMem[b] = make([]int64, maxSplit)
		for split := 1; split <= maxSplit; split++ {
			lb := globalBatch / split
			if lb == 0 {
				lb = 1
			}
			p.TeacherFwd[b][split-1] = timeAvg(steps, func() float64 { return cost.BlockFwdTime(gpu, tb, lb) })
			p.StudentFwd[b][split-1] = timeAvg(steps, func() float64 { return cost.BlockFwdTime(gpu, sb, lb) })
			p.StudentBwd[b][split-1] = timeAvg(steps, func() float64 { return cost.BlockBwdTime(gpu, sb, lb) })
			p.TeacherMem[b][split-1] = cost.TeacherBlockMemory(tb, lb)
			p.StudentMem[b][split-1] = cost.StudentBlockMemory(sb, lb) + cost.RelayBufferMemory(tb, lb)
		}
		p.Update[b] = cost.UpdateTime(gpu, sb)
		p.TeacherOutBytesPerSample[b] = tb.OutBytes(1)
		p.TeacherInBytesPerSample[b] = tb.InBytes(1)
		p.StudentParamBytes[b] = sb.ParamBytes()
	}
	return p
}

// timeAvg mimics a repeated timing measurement: it evaluates the probe
// the given number of times and returns the mean. Because the analytic
// device model is deterministic, every sample is identical, so the mean
// is returned exactly (a naive sum/n would drift in the last ulp and
// break bit-level reproducibility across different step counts).
func timeAvg(steps int, probe func() float64) float64 {
	first := probe()
	for i := 1; i < steps; i++ {
		if v := probe(); v != first {
			// Unreachable with the analytic model; guard against a
			// future stochastic model silently biasing the mean.
			sum := first + v
			for j := i + 1; j < steps; j++ {
				sum += probe()
			}
			return sum / float64(steps)
		}
	}
	return first
}
