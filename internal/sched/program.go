package sched

import (
	"fmt"
	"strings"
)

// Stage is the unit both executors play: its member devices take one
// training step on the stage's blocks. The embedded Group names the
// members, their batch shares and the student blocks trained, each
// against the teacher block of the same number.
type Stage struct {
	Group
	// Relayed says where the step's input comes from: the boundary
	// activation of the stage before it in the phase, or — when false —
	// the loader's batch, on which every member first runs teacher blocks
	// 0..Blocks[0]-1 forward and trains nothing: the redundant teacher
	// execution of the DP and LS baselines.
	Relayed bool
}

// Prefix returns how many teacher-only blocks the members run before the
// stage's own.
func (s Stage) Prefix() int {
	if s.Relayed {
		return 0
	}
	return s.Blocks[0]
}

// Program is a schedule as data. A phase is one pass over the dataset in
// which every step plays the phase's stages in order, a device taking
// part in each stage that lists it; phases run back to back. DP, LS and
// the whole teacher-relaying family differ only in the program their
// builder emits.
type Program struct {
	Name string
	// Desc narrates the schedule the way the paper's figures do.
	Desc   string
	Phases [][]Stage
	// Barrier delays every update of a step until all devices finished
	// the step's backward passes (Fig. 3b); decoupled parameter update
	// clears it.
	Barrier bool
	// Model holds what only the simulator reads.
	Model Modelling
}

// Modelling records, per builder, the two points on which the
// hand-written DP, LS and TR sweeps that Program replaced estimated a
// device's memory differently. Each is an open question for a measurement
// on the real engine to settle (ROADMAP item 3); until then the
// simulator's pinned Fig. 7 depends on them.
type Modelling struct {
	// StreamTeacher prices a stage's teacher blocks as one streaming pass
	// — every block's parameters plus the largest working set — instead
	// of block by block, all resident.
	StreamTeacher bool
	// StageBuffers adds the stage's input, held apart from the copy its
	// first trained block retains, and, where the stage feeds a relayed
	// one, the output being sent.
	StageBuffers bool
}

// TeacherRelaying returns the program of a relay plan: one phase, one
// stage per group, every group after the first fed by the one before it.
// dpu is decoupled parameter update. Plain TR, TR+DPU, TR+IR and AHD's
// hybrid plans are all this builder on different plans.
func TeacherRelaying(plan Plan, dpu bool) Program {
	stages := make([]Stage, len(plan.Groups))
	for gi, g := range plan.Groups {
		stages[gi] = Stage{Group: g, Relayed: gi > 0}
	}
	return Program{Name: plan.Name, Desc: plan.Describe(), Phases: [][]Stage{stages},
		Barrier: !dpu, Model: Modelling{StageBuffers: true}}
}

// DataParallel returns the DP baseline (Fig. 3a, the DNA implementation):
// one phase per block, in which all devices share the batch, run the
// teacher up to the block and train it, all-reducing its gradients.
func DataParallel(nDev, nBlocks int) Program {
	phases := make([][]Stage, nBlocks)
	for b := range phases {
		phases[b] = []Stage{{Group: Group{Devices: seq(0, nDev), Blocks: []int{b}}}}
	}
	return Program{Name: "data-parallel", Desc: "all devices data-parallel, blocks sequential",
		Phases: phases}
}

// Layerwise returns the LS baseline of Blakeney et al.: every task is an
// independent job that loads the full batch and runs its own teacher
// prefix, and the tasks are spread over the devices by LPT bin packing on
// the caller's static cost estimates, one per task.
func Layerwise(est []float64, nDev int) Program {
	var stages []Stage
	var desc []string
	for d, tasks := range LPTPack(est, nDev) {
		for _, u := range tasks {
			stages = append(stages, Stage{Group: Group{Devices: []int{d}, Blocks: []int{u}}})
		}
		desc = append(desc, fmt.Sprintf("dev%d: %d tasks", d, len(tasks)))
	}
	return Program{Name: "layerwise", Desc: strings.Join(desc, " | "), Phases: [][]Stage{stages},
		Model: Modelling{StreamTeacher: true, StageBuffers: true}}
}

// NumDevices returns one more than the highest device rank the program
// names.
func (p Program) NumDevices() int {
	n := 0
	for _, phase := range p.Phases {
		for _, st := range phase {
			for _, d := range st.Devices {
				if d >= n {
					n = d + 1
				}
			}
		}
	}
	return n
}

// Validate checks that the program can be played on nDev devices and
// trains each of nBlocks blocks in exactly one stage: members in
// ascending rank (the all-reduce fold order), blocks contiguous, a
// relayed stage continuing where the stage before it stops, and — under
// the per-step barrier, which every device must reach once a step —
// every device in exactly one stage of each phase.
func (p Program) Validate(nDev, nBlocks int) error {
	trained := make([]bool, nBlocks)
	for pi, phase := range p.Phases {
		stagesOf := make([]int, nDev)
		for si, st := range phase {
			bad := func(format string, args ...any) error {
				return fmt.Errorf("sched: program %q phase %d stage %d: %s", p.Name, pi, si, fmt.Sprintf(format, args...))
			}
			if len(st.Devices) == 0 || len(st.Blocks) == 0 {
				return bad("empty")
			}
			for j, d := range st.Devices {
				if d < 0 || d >= nDev || (j > 0 && d <= st.Devices[j-1]) {
					return bad("devices %v not ascending ranks below %d", st.Devices, nDev)
				}
				stagesOf[d]++
			}
			for i, b := range st.Blocks {
				if b != st.Blocks[0]+i || b < 0 || b >= nBlocks {
					return bad("blocks %v not a contiguous run below %d", st.Blocks, nBlocks)
				}
				if trained[b] {
					return bad("block %d is trained twice", b)
				}
				trained[b] = true
			}
			if st.Relayed && (si == 0 || phase[si-1].Blocks[len(phase[si-1].Blocks)-1]+1 != st.Blocks[0]) {
				return bad("relayed input does not continue the stage before it")
			}
		}
		for d, n := range stagesOf {
			if p.Barrier && n != 1 {
				return fmt.Errorf("sched: program %q phase %d: device %d is in %d stages, the step barrier needs one", p.Name, pi, d, n)
			}
		}
	}
	for b, ok := range trained {
		if !ok {
			return fmt.Errorf("sched: program %q trains no block %d", p.Name, b)
		}
	}
	return nil
}
