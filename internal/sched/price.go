package sched

import (
	"pipebd/internal/cost"
	"pipebd/internal/hw"
	"pipebd/internal/model"
)

// The one place a stage is priced analytically (see the package
// comment). A new cost term goes in here and reaches simulator and
// planners alike; prices measured on a live run enter the plan search
// beside it (search.go).

// MemberCost is one step of a stage as one member pays for it, on its own
// GPU at its own batch share, in seconds.
type MemberCost struct {
	Device int
	Batch  int
	// TeacherFwd lists the teacher-only prefix, then the stage's blocks.
	TeacherFwd []float64
	// StudentFwd and StudentBwd list the stage's trained blocks.
	StudentFwd, StudentBwd []float64
	Update                 float64
	// ExposedAllReduce is what the backward pass does not hide of the
	// stage's gradient all-reduce; zero for an unsplit stage.
	ExposedAllReduce float64
}

// Teacher returns the member's teacher forward time per step.
func (c MemberCost) Teacher() float64 { return sum(c.TeacherFwd) }

// Student returns the member's student forward and backward time per step.
func (c MemberCost) Student() float64 { return sum(c.StudentFwd) + sum(c.StudentBwd) }

// Compute returns the member's kernel time per step, teacher and student.
func (c MemberCost) Compute() float64 { return c.Teacher() + c.Student() }

// Step returns the member's steady-state time per step, the number a
// planner balances: compute, exposed all-reduce and update.
func (c MemberCost) Step() float64 { return c.Compute() + c.ExposedAllReduce + c.Update }

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Price returns what one step of st costs each of its members at the
// global batch. A stage whose member batches do not add up to the batch
// is an error: it would train on fewer samples than the step loads.
func Price(w model.Workload, sys hw.System, batch int, st Stage) ([]MemberCost, error) {
	if err := st.ValidateShares(batch); err != nil {
		return nil, err
	}
	tb, sb := w.Teacher.Net.Blocks, w.Student.Net.Blocks
	var gradBytes int64
	for _, b := range st.Blocks {
		gradBytes += sb[b].ParamBytes()
	}
	members := make([]MemberCost, st.Split())
	for j, d := range st.Devices {
		gpu := sys.GPUs[d]
		m := MemberCost{Device: d, Batch: st.MemberBatch(batch, j)}
		for b := st.Blocks[0] - st.Prefix(); b < st.Blocks[0]; b++ {
			m.TeacherFwd = append(m.TeacherFwd, cost.BlockFwdTime(gpu, tb[b], m.Batch))
		}
		var bwdSum float64
		for _, b := range st.Blocks {
			m.TeacherFwd = append(m.TeacherFwd, cost.BlockFwdTime(gpu, tb[b], m.Batch))
			m.StudentFwd = append(m.StudentFwd, cost.BlockFwdTime(gpu, sb[b], m.Batch))
			bwd := cost.BlockBwdTime(gpu, sb[b], m.Batch)
			m.StudentBwd = append(m.StudentBwd, bwd)
			bwdSum += bwd
			m.Update += cost.UpdateTime(gpu, sb[b])
		}
		m.ExposedAllReduce = sys.Link.ExposedAllReduceTime(gradBytes, st.Split(), bwdSum)
		members[j] = m
	}
	return members, nil
}

// Memory estimates the bytes one member holds while it plays stage si of
// a phase at its local batch: the stage's teacher blocks at inference,
// its student blocks under training and, where the program's modelling
// says so, the buffers at the stage's boundaries. A device's peak is its
// worst stage, since a stage releases what it held before the next one
// runs.
func Memory(w model.Workload, mod Modelling, phase []Stage, si, localBatch int) int64 {
	st := phase[si]
	tb, sb := w.Teacher.Net.Blocks, w.Student.Net.Blocks
	first, last := st.Blocks[0], st.Blocks[len(st.Blocks)-1]
	var total, workingSet int64
	for b := first - st.Prefix(); b <= last; b++ {
		if mod.StreamTeacher {
			total += tb[b].ParamBytes()
			if ws := 2 * tb[b].MaxActBytes(localBatch); ws > workingSet {
				workingSet = ws
			}
		} else {
			total += cost.TeacherBlockMemory(tb[b], localBatch)
		}
	}
	total += workingSet
	for _, b := range st.Blocks {
		total += cost.StudentBlockMemory(sb[b], localBatch)
	}
	if mod.StageBuffers {
		total += tb[first].InBytes(localBatch)
		if si+1 < len(phase) && phase[si+1].Relayed {
			total += tb[last].OutBytes(localBatch) // the output being sent
		}
	}
	return total
}
