package pipeline

import (
	"pipebd/internal/cost"
	"pipebd/internal/metrics"
	"pipebd/internal/sched"
	"pipebd/internal/sim"
)

// RunTR simulates Pipe-BD's teacher relaying (Fig. 3b-3d, Algorithm 1)
// under an arbitrary relay plan:
//
//   - a plain contiguous plan (sched.TRContiguous) reproduces TR;
//   - dpu=true removes the per-step update barrier (TR+DPU);
//   - a hybrid plan from sched.AHD adds data-parallel block sharing
//     (TR+DPU+AHD);
//   - sched.InternalRelaying degenerates to the TR+IR ablation;
//   - plans with explicit per-member batch shares (sched.AHDHetero)
//     balance heterogeneous devices — each member's times are computed
//     against its own GPU model.
//
// Per step, each group receives its input activation (from the shared
// loader for group 0, relayed over the interconnect otherwise), executes
// its teacher blocks, forwards the boundary activation to the next group
// through the copy engine (overlapped with student execution), trains its
// student blocks, all-reduces gradients within the group when shared, and
// updates either immediately (DPU) or after a global barrier.
func RunTR(cfg Config, plan sched.Plan, dpu bool, name string) metrics.Report {
	cfg.validate()
	env := newEnvironment(cfg)
	rep := runTR(cfg, env, plan, dpu, name)
	return rep
}

// RunTRTracks is RunTR returning the simulation tracks for rendering.
func RunTRTracks(cfg Config, plan sched.Plan, dpu bool, name string) (metrics.Report, Tracks) {
	cfg.validate()
	env := newEnvironment(cfg)
	rep := runTR(cfg, env, plan, dpu, name)
	return rep, env.tracks()
}

// memberState holds one group member's precomputed per-step costs on its
// own device model.
type memberState struct {
	device     int
	localBatch int
	tFwd       []float64 // per block in group
	sFwd       []float64
	sBwd       []float64
	bwdSum     float64
	updateSum  float64
	exposedAR  float64
	peakMem    int64
}

// groupState is one plan group with per-member costs.
type groupState struct {
	sched.Group
	members          []memberState
	inBytesPerSample int64
}

func runTR(cfg Config, env *epochEnvironment, plan sched.Plan, dpu bool, name string) metrics.Report {
	nDev := cfg.System.NumDevices()
	tb, sb := teacherBlocks(cfg), studentBlocks(cfg)
	if err := plan.Validate(nDev, len(tb)); err != nil {
		panic(err)
	}
	steps := cfg.steps()
	link := cfg.System.Link

	groups := make([]*groupState, len(plan.Groups))
	for gi, g := range plan.Groups {
		if err := g.ValidateShares(cfg.GlobalBatch); err != nil {
			panic(err)
		}
		gs := &groupState{Group: g}
		gs.inBytesPerSample = tb[g.Blocks[0]].InBytes(1)
		var gradBytes int64
		for _, b := range g.Blocks {
			gradBytes += sb[b].ParamBytes()
		}
		for j, d := range g.Devices {
			gpu := cfg.System.GPUs[d]
			lb := g.MemberBatch(cfg.GlobalBatch, j)
			m := memberState{device: d, localBatch: lb}
			for _, b := range g.Blocks {
				m.tFwd = append(m.tFwd, cost.BlockFwdTime(gpu, tb[b], lb))
				m.sFwd = append(m.sFwd, cost.BlockFwdTime(gpu, sb[b], lb))
				bwd := cost.BlockBwdTime(gpu, sb[b], lb)
				m.sBwd = append(m.sBwd, bwd)
				m.bwdSum += bwd
				m.updateSum += cost.UpdateTime(gpu, sb[b])
			}
			if g.Split() > 1 {
				m.exposedAR = exposedAllReduce(link, gradBytes, g.Split(), m.bwdSum, cfg.overlap())
			}
			m.peakMem = trPeakMemory(cfg, g, lb)
			gs.members = append(gs.members, m)
		}
		groups[gi] = gs
	}

	for s := 0; s < steps; s++ {
		// Relay order: senders' teacher-forward end times are known when
		// the next group is processed.
		var prevTeacherDone []float64 // per member of previous group
		var prevDevices []int
		for gi, gs := range groups {
			k := gs.Split()
			memberReady := make([]float64, k)
			waitCat := sim.CatComm
			if gi == 0 {
				// The first group loads from the shared host loader.
				waitCat = sim.CatLoad
				for j, m := range gs.members {
					_, end := env.loader.Exec(0, cfg.loadTime(m.localBatch), sim.CatLoad, "DL")
					memberReady[j] = end
				}
			} else {
				// Relay: every member of the previous group sends its
				// shard through its copy engine; receivers are ready
				// when the slowest contributing transfer lands.
				var ready float64
				for pj, sd := range prevDevices {
					bytes := gs.inBytesPerSample * int64(cfg.GlobalBatch/len(prevDevices))
					_, end := env.copies[sd].Exec(prevTeacherDone[pj], link.TransferTime(bytes), sim.CatComm, "TX")
					if end > ready {
						ready = end
					}
				}
				for j := range memberReady {
					memberReady[j] = ready
				}
			}

			// Teacher forward on every member.
			teacherDone := make([]float64, k)
			for j, m := range gs.members {
				dev := env.devs[m.device]
				stepOverhead(cfg, dev)
				if gi == 0 {
					ingestBatch(cfg, dev, memberReady[j])
				} else {
					waitFor(dev, memberReady[j], waitCat, "RX")
				}
				for bi, b := range gs.Blocks {
					dev.Exec(0, m.tFwd[bi], sim.CatTeacherFwd, blockLabel("T", b))
				}
				teacherDone[j] = dev.FreeAt()
			}

			// Student forward/backward, intra-group all-reduce, update.
			for _, m := range gs.members {
				dev := env.devs[m.device]
				for bi, b := range gs.Blocks {
					dev.Exec(0, m.sFwd[bi], sim.CatStudentFwd, blockLabel("S", b))
				}
				for bi := len(gs.Blocks) - 1; bi >= 0; bi-- {
					dev.Exec(0, m.sBwd[bi], sim.CatStudentBwd, blockLabel("S", gs.Blocks[bi]))
				}
				if k > 1 {
					dev.Exec(0, m.exposedAR, sim.CatAllReduce, "DP")
				}
				if dpu {
					dev.Exec(0, m.updateSum, sim.CatUpdate, "U")
				}
			}

			prevTeacherDone = teacherDone
			prevDevices = gs.Devices
		}

		if !dpu {
			// Per-step barrier: updates wait for every device's backward
			// (Fig. 3b), creating the bubbles DPU removes.
			var barrierAt float64
			for _, dev := range env.devs {
				if dev.FreeAt() > barrierAt {
					barrierAt = dev.FreeAt()
				}
			}
			for _, gs := range groups {
				for _, m := range gs.members {
					env.devs[m.device].AdvanceTo(barrierAt)
					env.devs[m.device].Exec(0, m.updateSum, sim.CatUpdate, "UP")
				}
			}
		}
	}

	mem := make([]int64, nDev)
	for _, gs := range groups {
		for _, m := range gs.members {
			mem[m.device] = m.peakMem
		}
	}
	return env.report(cfg, name, plan.Describe(), steps, mem)
}

// trPeakMemory estimates a group member's peak memory: its teacher blocks
// at inference, its student blocks under training, and the relay buffers
// at the group boundaries, all at the member's local batch.
func trPeakMemory(cfg Config, g sched.Group, localBatch int) int64 {
	tb, sb := teacherBlocks(cfg), studentBlocks(cfg)
	var total int64
	for _, b := range g.Blocks {
		total += cost.TeacherBlockMemory(tb[b], localBatch)
		total += cost.StudentBlockMemory(sb[b], localBatch)
	}
	first, last := g.Blocks[0], g.Blocks[len(g.Blocks)-1]
	total += tb[first].InBytes(localBatch) + tb[last].OutBytes(localBatch)
	return total
}

// RunIR simulates the TR+IR ablation (internal relaying): the degenerate
// hybrid plan in which all devices share every block data-parallel and
// teacher activations stay in device memory instead of being relayed.
func RunIR(cfg Config) metrics.Report {
	cfg.validate()
	plan := sched.InternalRelaying(cfg.System.NumDevices(), len(teacherBlocks(cfg)))
	env := newEnvironment(cfg)
	return runTR(cfg, env, plan, true, "TR+IR")
}
